package mutate

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gem/internal/core"
)

// Binary computation codec for corpus entries. Thread labels are
// serialized explicitly (unlike the mutator's compIR, which re-derives
// them from the spec): a replayed corpus entry must reproduce the
// checked computation bit-for-bit, including labels, without re-running
// thread.Apply.

var errBadComp = errors.New("mutate: corrupt computation encoding")

// EncodeComputation serializes a computation for corpus persistence.
func EncodeComputation(c *core.Computation) []byte {
	var out []byte
	str := func(s string) {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	n := c.NumEvents()
	out = binary.AppendUvarint(out, uint64(n))
	for i := 0; i < n; i++ {
		e := c.Event(core.EventID(i))
		str(e.Element())
		str(e.Class())
		params := e.Params()
		out = binary.AppendUvarint(out, uint64(params.Len()))
		for j := 0; j < params.Len(); j++ {
			p := params.At(j)
			str(p.Name)
			v := p.Value
			out = append(out, byte(v.Kind))
			switch v.Kind {
			case core.KindInt:
				out = binary.AppendVarint(out, v.I)
			case core.KindString:
				str(v.S)
			case core.KindBool:
				if v.B {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		}
		labels := e.Threads()
		out = binary.AppendUvarint(out, uint64(labels.Len()))
		for k := 0; k < labels.Len(); k++ {
			str(labels.At(k))
		}
	}
	edges := 0
	for i := 0; i < n; i++ {
		edges += len(c.Enabled(core.EventID(i)))
	}
	out = binary.AppendUvarint(out, uint64(edges))
	for i := 0; i < n; i++ {
		for _, dst := range c.Enabled(core.EventID(i)) {
			out = binary.AppendUvarint(out, uint64(i))
			out = binary.AppendUvarint(out, uint64(dst))
		}
	}
	return out
}

// DecodeComputation rebuilds a computation from EncodeComputation's
// output. Arbitrary input never panics: malformed bytes return an
// error, and so do parameter names that are not strictly increasing,
// which the encoder never writes. Thread labels come from the encoding
// verbatim.
func DecodeComputation(data []byte) (*core.Computation, error) {
	pos := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, errBadComp
		}
		pos += n
		return v, nil
	}
	str := func() (string, error) {
		n, err := uv()
		if err != nil || uint64(len(data)-pos) < n {
			return "", errBadComp
		}
		s := string(data[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	nEvents, err := uv()
	if err != nil || nEvents > uint64(len(data)) {
		return nil, errBadComp
	}
	b := core.NewBuilder()
	type labels struct {
		id   core.EventID
		tids []string
	}
	var labelled []labels
	for i := uint64(0); i < nEvents; i++ {
		element, err := str()
		if err != nil {
			return nil, err
		}
		class, err := str()
		if err != nil {
			return nil, err
		}
		nParams, err := uv()
		if err != nil || nParams > uint64(len(data)) {
			return nil, errBadComp
		}
		var params []core.Param
		for j := uint64(0); j < nParams; j++ {
			name, err := str()
			if err != nil {
				return nil, err
			}
			if j > 0 && name <= params[j-1].Name {
				return nil, errBadComp
			}
			if pos >= len(data) {
				return nil, errBadComp
			}
			kind := core.ValueKind(data[pos])
			pos++
			switch kind {
			case core.KindInt:
				v, n := binary.Varint(data[pos:])
				if n <= 0 {
					return nil, errBadComp
				}
				pos += n
				params = append(params, core.P(name, core.Int(v)))
			case core.KindString:
				s, err := str()
				if err != nil {
					return nil, err
				}
				params = append(params, core.P(name, core.Str(s)))
			case core.KindBool:
				if pos >= len(data) {
					return nil, errBadComp
				}
				params = append(params, core.P(name, core.Bool(data[pos] == 1)))
				pos++
			default:
				return nil, fmt.Errorf("mutate: unknown value kind %d", kind)
			}
		}
		id := b.Event(element, class, core.NewParams(params...))
		nThreads, err := uv()
		if err != nil || nThreads > uint64(len(data)) {
			return nil, errBadComp
		}
		var tids []string
		for j := uint64(0); j < nThreads; j++ {
			t, err := str()
			if err != nil {
				return nil, err
			}
			tids = append(tids, t)
		}
		if len(tids) > 0 {
			labelled = append(labelled, labels{id: id, tids: tids})
		}
	}
	nEdges, err := uv()
	if err != nil || nEdges > uint64(len(data)) {
		return nil, errBadComp
	}
	for i := uint64(0); i < nEdges; i++ {
		src, err := uv()
		if err != nil {
			return nil, err
		}
		dst, err := uv()
		if err != nil {
			return nil, err
		}
		if src >= nEvents || dst >= nEvents {
			return nil, errBadComp
		}
		b.Enable(core.EventID(src), core.EventID(dst))
	}
	if pos != len(data) {
		return nil, errBadComp
	}
	for _, l := range labelled {
		for _, t := range l.tids {
			b.Thread(l.id, t)
		}
	}
	return b.Build()
}
