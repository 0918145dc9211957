package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing: every file in the store is one record —
//
//	"GEMS" | format version byte | kind byte | uvarint payload length |
//	payload | crc32c (4 bytes, little-endian, over everything before it)
//
// The checksum plus the strict length accounting make every truncation,
// bit flip, or version skew an explicit decode error; the store maps
// those to cache misses. Record kinds are append-only.
const (
	recordMagic   = "GEMS"
	recordVersion = 1
)

// The record kinds. A kind is the suffix of its record files, so a
// retired kind keeps its number: renumbering the kinds after it would
// orphan every record of theirs. Files of a retired kind are never read
// again, and Trim evicts them first.
const (
	kindVerdict byte = 1 + iota
	_                // 2: fast-path guard vectors, retired
	_                // 3: history lattices, retired
	kindSat
	kindCorpus
	kindManifest
)

var (
	errCorrupt = errors.New("store: corrupt record")
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
)

// encodeRecord frames a payload.
func encodeRecord(kind byte, payload []byte) []byte {
	out := make([]byte, 0, len(recordMagic)+2+binary.MaxVarintLen64+len(payload)+4)
	out = append(out, recordMagic...)
	out = append(out, recordVersion, kind)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// decodeRecord parses a framed record, returning its kind and payload.
// Arbitrary input never panics: every malformed shape — short header,
// wrong magic, unknown version, bad length, trailing bytes, checksum
// mismatch — returns an error, which the store treats as a miss.
func decodeRecord(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < len(recordMagic)+2+1+4 || string(data[:len(recordMagic)]) != recordMagic {
		return 0, nil, errCorrupt
	}
	if data[len(recordMagic)] != recordVersion {
		return 0, nil, fmt.Errorf("store: record version %d, want %d", data[len(recordMagic)], recordVersion)
	}
	kind = data[len(recordMagic)+1]
	rest := data[len(recordMagic)+2 : len(data)-4]
	plen, n := binary.Uvarint(rest)
	if n <= 0 || plen != uint64(len(rest)-n) {
		return 0, nil, errCorrupt
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], crcTable) != sum {
		return 0, nil, errCorrupt
	}
	return kind, rest[n:], nil
}
