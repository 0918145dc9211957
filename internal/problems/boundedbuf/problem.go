// Package boundedbuf implements the Bounded Buffer problem from the
// paper's catalogue (Section 11): producers deposit items into a
// capacity-N FIFO buffer, consumers fetch them. It provides the GEM
// problem specification (chains, capacity invariant, FIFO value
// delivery), Monitor, CSP, and ADA solutions, and the correspondences for
// the Section 9 sat methodology.
package boundedbuf

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/gemlang"
	"gem/internal/spec"
	"gem/internal/thread"
)

// BufferElement is the problem-level buffer element.
const BufferElement = "buffer"

// Workload configures a buffer scenario.
type Workload struct {
	Producers int
	Consumers int
	// Items each producer deposits; total items must be divisible by the
	// number of consumers, each of which fetches its share.
	ItemsPerProducer int
	Capacity         int
}

// ProducerName returns producer i's process name (1-based).
func ProducerName(i int) string { return fmt.Sprintf("p%d", i) }

// ConsumerName returns consumer j's process name (1-based).
func ConsumerName(j int) string { return fmt.Sprintf("c%d", j) }

// ItemValue returns the distinct value producer i deposits as its k-th
// item (both 1-based).
func ItemValue(i, k int) int64 { return int64(10*i + k) }

// TotalItems returns the number of items moved through the buffer.
func (w Workload) TotalItems() int { return w.Producers * w.ItemsPerProducer }

// ItemsPerConsumer returns each consumer's share.
func (w Workload) ItemsPerConsumer() int { return w.TotalItems() / w.Consumers }

// Validate checks the workload is well-formed.
func (w Workload) Validate() error {
	if w.Producers < 1 || w.Consumers < 1 || w.ItemsPerProducer < 1 || w.Capacity < 1 {
		return fmt.Errorf("boundedbuf: workload fields must be positive: %+v", w)
	}
	if w.TotalItems()%w.Consumers != 0 {
		return fmt.Errorf("boundedbuf: %d items do not divide among %d consumers", w.TotalItems(), w.Consumers)
	}
	return nil
}

// ProblemSpec builds the GEM problem specification:
//
//   - Each Deposit is caused by exactly one Produce and vice versa; each
//     Consume is the outcome of exactly one Fetch.
//   - Produced values ride unchanged into the buffer and out to the
//     consumer.
//   - Capacity: at every history, 0 ≤ #Deposit − #Fetch ≤ N (the paper's
//     One-Slot Buffer is the N=1 case).
//   - FIFO: the k-th Fetch yields the k-th Deposit's item.
func ProblemSpec(w Workload) (*spec.Spec, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString("SPEC BoundedBuffer\n")
	fmt.Fprintf(&sb, `
ELEMENT %s
  EVENTS
    Deposit(item: VALUE)
    Fetch(item: VALUE)
END
GROUP buf MEMBERS(%s) PORTS(%s.Deposit, %s.Fetch) END
`, BufferElement, BufferElement, BufferElement, BufferElement)
	var produces []string
	for i := 1; i <= w.Producers; i++ {
		fmt.Fprintf(&sb, "ELEMENT %s EVENTS Produce(item: VALUE) END\n", ProducerName(i))
		produces = append(produces, ProducerName(i)+".Produce")
	}
	for j := 1; j <= w.Consumers; j++ {
		fmt.Fprintf(&sb, "ELEMENT %s EVENTS Consume(item: VALUE) END\n", ConsumerName(j))
	}
	fmt.Fprintf(&sb, "THREAD piDep = (Produce :: %s.Deposit)\n", BufferElement)
	fmt.Fprintf(&sb, "THREAD piFet = (%s.Fetch :: Consume)\n", BufferElement)
	fmt.Fprintf(&sb, `
RESTRICTION "deposits-caused-by-produces": NDPREREQ({%s} -> %s.Deposit) ;
RESTRICTION "produce-value":
  (FORALL p: Produce, d: %s.Deposit) p |> d -> p.item = d.item ;
RESTRICTION "fetch-value":
  (FORALL f: %s.Fetch, c: Consume) f |> c -> f.item = c.item ;
`, strings.Join(produces, ", "), BufferElement, BufferElement, BufferElement)
	for j := 1; j <= w.Consumers; j++ {
		fmt.Fprintf(&sb, "RESTRICTION \"%s-consumes\": PREREQ(%s.Fetch -> %s.Consume) ;\n",
			ConsumerName(j), BufferElement, ConsumerName(j))
	}
	// The capacity and FIFO restrictions, in the concrete syntax (the
	// counting forms COUNT and FIFO extend the paper's abbreviation set).
	fmt.Fprintf(&sb, `
RESTRICTION "capacity": [] COUNT(%s.Deposit - %s.Fetch IN 0 .. %d) ;
RESTRICTION "fifo": FIFO(%s.Deposit.item -> %s.Fetch.item) ;
`, BufferElement, BufferElement, w.Capacity, BufferElement, BufferElement)
	s, err := gemlang.Parse(sb.String())
	if err != nil {
		return nil, fmt.Errorf("boundedbuf: problem spec does not parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("boundedbuf: problem spec invalid: %w", err)
	}
	return s, nil
}

// BuildComputation constructs a problem-level computation in which the
// given item values flow through the buffer FIFO, deposits and fetches
// interleaved as tightly as the capacity allows (used to exercise the
// problem spec directly, experiment E6).
func BuildComputation(s *spec.Spec, w Workload) (*core.Computation, error) {
	b := core.NewBuilder()
	type pending struct {
		val int64
		dep core.EventID
	}
	var queue []pending
	fetched := 0
	consumer := 0
	fetchOne := func() {
		it := queue[0]
		queue = queue[1:]
		f := b.Event(BufferElement, "Fetch", core.NewParams(core.P("item", core.Int(it.val))))
		b.Enable(it.dep, f)
		cons := b.Event(ConsumerName(consumer+1), "Consume", core.NewParams(core.P("item", core.Int(it.val))))
		b.Enable(f, cons)
		fetched++
		if fetched%w.ItemsPerConsumer() == 0 {
			consumer++
		}
	}
	for i := 1; i <= w.Producers; i++ {
		for k := 1; k <= w.ItemsPerProducer; k++ {
			if len(queue) == w.Capacity {
				fetchOne()
			}
			val := ItemValue(i, k)
			p := b.Event(ProducerName(i), "Produce", core.NewParams(core.P("item", core.Int(val))))
			d := b.Event(BufferElement, "Deposit", core.NewParams(core.P("item", core.Int(val))))
			b.Enable(p, d)
			queue = append(queue, pending{val: val, dep: d})
		}
	}
	for len(queue) > 0 {
		fetchOne()
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	thread.Apply(c, s.Threads()...)
	return c, nil
}
