package store

// The mutation-corpus record layer: campaign manifests and shrunk
// counterexamples persisted by cmd/gemmut, so gemmut -replay can check a
// campaign's corpus against the oracle without regenerating it. Payloads are
// opaque to the store (internal/mutate owns the codec); the store
// contributes addressing, framing, integrity checking, and hit/miss
// accounting, exactly as for verdict records.

// CorpusKey derives the record key for one shrunk corpus entry from the
// mutant spec's canonical hash and the shrunk computation's fingerprint —
// the same (HashSpec × Fingerprint) identity the campaign dedups on.
func CorpusKey(specHash, fingerprint string) string {
	return key("corpus", engineVersionStr, specHash, fingerprint)
}

// GetCorpus fetches a corpus entry previously persisted under
// CorpusKey. A missing or corrupt record is a miss.
func (s *Store) GetCorpus(corpusKey string) ([]byte, bool) {
	if s == nil || s.mode == Off {
		return nil, false
	}
	payload, ok := s.read(corpusKey, kindCorpus)
	if !ok {
		s.miss()
		return nil, false
	}
	s.hit()
	return payload, true
}

// PutCorpus persists one corpus entry under CorpusKey.
func (s *Store) PutCorpus(corpusKey string, payload []byte) {
	s.write(corpusKey, kindCorpus, payload)
}

// manifestKey addresses a campaign manifest by its campaign name.
func manifestKey(name string) string {
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
