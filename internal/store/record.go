package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: a segment file is a sequence of frames, one record
// each —
//
//	"GEMS" | format version byte | kind byte | 32-byte key |
//	uvarint payload length | payload |
//	crc32c (4 bytes, little-endian, over everything before it)
//
// The checksum plus the strict length accounting make every truncation,
// bit flip, or version skew an explicit decode error; the store maps
// those to cache misses. Record kinds are append-only.
const (
	recordMagic   = "GEMS"
	recordVersion = 2
	// headerLen is the fixed part of a frame before the payload length.
	headerLen = len(recordMagic) + 2 + sha256.Size
)

// The record kinds. A kind is part of every record's identity, so a
// retired kind keeps its number: renumbering the kinds after it would
// orphan every record of theirs. Frames of a retired kind are indexed
// but never looked up.
const (
	kindVerdict byte = 1 + iota
	_                // 2: fast-path guard vectors, retired
	_                // 3: history lattices, retired
	kindSat
	kindCorpus
	kindManifest
)

// digest is a record key: the SHA-256 of its key parts (see key).
type digest [sha256.Size]byte

// recordID names one record: a key under a kind.
type recordID struct {
	key  digest
	kind byte
}

var (
	errCorrupt = errors.New("store: corrupt record")
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
)

// appendRecord appends the frame of a record to dst.
func appendRecord(dst []byte, id recordID, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, recordMagic...)
	dst = append(dst, recordVersion, id.kind)
	dst = append(dst, id.key[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// decodeRecord parses the frame at the start of data, returning the
// record's identity, its payload and the frame's length. Arbitrary input
// never panics: every malformed shape — short header, wrong magic,
// unknown version, a length past the end of data or not in its shortest
// encoding, checksum mismatch — returns an error, which the store treats
// as a miss. A frame that decodes re-encodes to exactly its own bytes.
func decodeRecord(data []byte) (id recordID, payload []byte, n int, err error) {
	if len(data) < headerLen+1+4 || string(data[:len(recordMagic)]) != recordMagic {
		return id, nil, 0, errCorrupt
	}
	if v := data[len(recordMagic)]; v != recordVersion {
		return id, nil, 0, fmt.Errorf("store: record version %d, want %d", v, recordVersion)
	}
	id.kind = data[len(recordMagic)+1]
	copy(id.key[:], data[len(recordMagic)+2:headerLen])
	plen, m := binary.Uvarint(data[headerLen:])
	room := len(data) - headerLen - m - 4
	var short [binary.MaxVarintLen64]byte
	if m <= 0 || room < 0 || plen > uint64(room) || binary.PutUvarint(short[:], plen) != m {
		return id, nil, 0, errCorrupt
	}
	end := headerLen + m + int(plen)
	if crc32.Checksum(data[:end], crcTable) != binary.LittleEndian.Uint32(data[end:]) {
		return id, nil, 0, errCorrupt
	}
	return id, data[headerLen+m : end], end + 4, nil
}

// scanSegment calls fn with the identity, offset and length of each
// frame of a segment's contents, in order. The first frame that fails to
// decode — torn by a crash or a concurrent append, or corrupt — ends the
// scan: nothing after it can be trusted to start at a frame boundary.
func scanSegment(data []byte, fn func(id recordID, off, n int)) {
	for off := 0; off < len(data); {
		id, _, n, err := decodeRecord(data[off:])
		if err != nil {
			return
		}
		fn(id, off, n)
		off += n
	}
}
