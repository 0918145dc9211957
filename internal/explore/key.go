package explore

import (
	"fmt"
	"sort"
	"strings"

	"gem/internal/core"
)

// Key renders c's partial order canonically: one line per event,
// element^occurrence:class params, and one per enable edge between two
// such labels, sorted. Computations that differ only in the order their
// concurrent events were built in, and so in their event IDs, share a
// key; any difference in events, parameters, element order or enables
// shows in it. Walk compares the runs a Machine marks by this key and
// their deadlock flags (Run.Key), and the tests compare every run
// through it.
func Key(c *core.Computation) string {
	labels := make([]string, c.NumEvents())
	for i := range labels {
		e := c.Event(core.EventID(i))
		labels[i] = fmt.Sprintf("%s^%d:%s%s", e.Element(), e.Seq(), e.Class(), e.Params())
	}
	lines := append([]string(nil), labels...)
	for i := range labels {
		for _, succ := range c.Enabled(core.EventID(i)) {
			lines = append(lines, labels[i]+">"+labels[succ])
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
