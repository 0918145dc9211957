package store

import "encoding/hex"

// The mutation-corpus record layer: campaign manifests and shrunk
// counterexamples persisted by cmd/gemmut, so gemmut -replay can check a
// campaign's corpus against the oracle without regenerating it. Payloads are
// opaque to the store (internal/mutate owns the codec); the store
// contributes addressing, framing, integrity checking, and hit/miss
// accounting, exactly as for verdict records.

// CorpusKey derives the record key for one shrunk corpus entry from the
// mutant spec's canonical hash and the shrunk computation's fingerprint —
// the same (HashSpec × Fingerprint) identity the campaign dedups on. The
// key is hex, since manifests list it.
func CorpusKey(specHash, fingerprint string) string {
	k := key("corpus", engineVersionStr, specHash, fingerprint)
	return hex.EncodeToString(k[:])
}

// parseCorpusKey is CorpusKey's inverse; ok is false for a string that
// is not 64 hex digits.
func parseCorpusKey(corpusKey string) (k digest, ok bool) {
	if len(corpusKey) != hex.EncodedLen(len(k)) {
		return k, false
	}
	_, err := hex.Decode(k[:], []byte(corpusKey))
	return k, err == nil
}

// GetCorpus fetches a corpus entry previously persisted under
// CorpusKey. A missing or corrupt record is a miss.
func (s *Store) GetCorpus(corpusKey string) ([]byte, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	k, ok := parseCorpusKey(corpusKey)
	var payload []byte
	if ok {
		payload, ok = s.read(k, kindCorpus)
	}
	if !ok {
		s.miss()
		return nil, false
	}
	s.hit()
	return payload, true
}

// PutCorpus persists one corpus entry under CorpusKey.
func (s *Store) PutCorpus(corpusKey string, payload []byte) {
	if k, ok := parseCorpusKey(corpusKey); ok {
		s.write(k, kindCorpus, payload)
	}
}

// manifestKey addresses a campaign manifest by its campaign name.
func manifestKey(name string) digest {
	return key("manifest", engineVersionStr, name)
}

// GetManifest fetches the manifest persisted for the named campaign.
func (s *Store) GetManifest(name string) ([]byte, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	payload, ok := s.read(manifestKey(name), kindManifest)
	if !ok {
		s.miss()
		return nil, false
	}
	s.hit()
	return payload, true
}

// PutManifest persists the manifest for the named campaign, replacing
// any previous one (a campaign name is a mutable head pointing into the
// content-addressed corpus entries).
func (s *Store) PutManifest(name string, payload []byte) {
	s.write(manifestKey(name), kindManifest, payload)
}
