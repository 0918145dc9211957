package mutate

import (
	"encoding/hex"
	"testing"

	"gem/internal/core"
)

// goldenComputation has events with zero, one and three parameters of
// all three kinds, given out of name order, plus thread labels.
func goldenComputation(t *testing.T) *core.Computation {
	t.Helper()
	b := core.NewBuilder()
	init := b.Event("buf", "Init", core.Params{})
	put := b.Event("buf", "Put", core.NewParams(core.P("item", core.Int(-3))))
	note := b.Event("user", "Note", core.NewParams(core.P("s", core.Str("héllo")), core.P("n", core.Int(42)), core.P("b", core.Bool(true))))
	flag := b.Event("user", "Flag", core.NewParams(core.P("ok", core.Bool(false))))
	b.Enable(init, note)
	b.Enable(put, flag)
	b.Enable(init, flag)
	b.Thread(put, "t2")
	b.Thread(put, "t1")
	b.Thread(init, "t1")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenEncoding is EncodeComputation(goldenComputation). gemmut's
// corpus records hold these bytes, so a change to the encoding breaks
// every corpus written before it.
const goldenEncoding = "040362756604496e69740001027431036275660350757401046974656d0105020274320274310475736572044e6f74650301620301016e01540173020668c3a96c6c6f00047573657204466c616701026f6b03000003000200030103"

func TestComputationCodecGolden(t *testing.T) {
	c := goldenComputation(t)
	enc := EncodeComputation(c)
	if got := hex.EncodeToString(enc); got != goldenEncoding {
		t.Fatalf("EncodeComputation =\n%s\nwant\n%s", got, goldenEncoding)
	}
	dec, err := DecodeComputation(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() != c.String() || core.Fingerprint(dec) != core.Fingerprint(c) {
		t.Errorf("round trip changed the computation:\n%s\nwant\n%s", dec, c)
	}
}

// TestDecodeRejectsUnsortedParams checks that the decoder treats
// parameter names that are not strictly increasing as a corrupt record:
// the encoder never writes them, so they can only come from damage.
func TestDecodeRejectsUnsortedParams(t *testing.T) {
	// record encodes one event e.A whose integer parameters are named
	// names, in the order given.
	record := func(names ...string) []byte {
		out := []byte{1, 1, 'e', 1, 'A', byte(len(names))}
		for _, name := range names {
			out = append(out, byte(len(name)))
			out = append(out, name...)
			out = append(out, byte(core.KindInt), 2) // zigzag varint of 1
		}
		return append(out, 0, 0) // no thread labels, no edges
	}
	if _, err := DecodeComputation(record("a", "b")); err != nil {
		t.Fatalf("sorted names: %v", err)
	}
	for _, names := range [][]string{{"b", "a"}, {"a", "a"}} {
		if _, err := DecodeComputation(record(names...)); err == nil {
			t.Errorf("decoded parameter names %q without error", names)
		}
	}
}
