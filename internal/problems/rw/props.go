package rw

import (
	"gem/internal/core"
	"gem/internal/logic"
)

// Program-level correctness properties, stated over the monitor-generated
// computations. The paper's correspondences map problem events to program
// events; here a read is requested at Begin(StartRead), granted at
// End(StartRead), and released at Begin(EndRead) — uniform across all
// five monitor variants. All properties are structural (they constrain
// the temporal order between specific events), so they are decided once
// per computation; the equivalence with the paper's history-based
// statements is spelled out below.

func beginRef(entry string) core.ClassRef { return core.Ref(MonitorName+"."+entry, "Begin") }
func endRef(entry string) core.ClassRef   { return core.Ref(MonitorName+"."+entry, "End") }

func sameProc(x, y string) logic.Formula {
	return logic.ParamCmp{X: x, P: "proc", Op: logic.OpEq, Y: y, Q: "proc"}
}

func diffProc(x, y string) logic.Formula {
	return logic.ParamCmp{X: x, P: "proc", Op: logic.OpNe, Y: y, Q: "proc"}
}

// MutualExclusion builds the "writers exclude others" property: a
// reader's active interval [End(StartRead), Begin(EndRead)] never
// overlaps a writer's [End(StartWrite), Begin(EndWrite)], and two
// writers' intervals never overlap. For interval events that are totally
// ordered (monitor-internal events always are), non-overlap is exactly
// "er ⇒ sw ∨ ew ⇒ sr".
func MutualExclusionProp() logic.Formula {
	readerWriter := logic.ForAll{Var: "sr", Ref: endRef("StartRead"),
		Body: logic.ForAll{Var: "er", Ref: beginRef("EndRead"),
			Body: logic.ForAll{Var: "sw", Ref: endRef("StartWrite"),
				Body: logic.ForAll{Var: "ew", Ref: beginRef("EndWrite"),
					Body: logic.Implies{
						If:   logic.And{sameProc("sr", "er"), sameProc("sw", "ew")},
						Then: logic.Or{logic.Precedes{X: "er", Y: "sw"}, logic.Precedes{X: "ew", Y: "sr"}},
					},
				},
			},
		},
	}
	writerWriter := logic.ForAll{Var: "sw1", Ref: endRef("StartWrite"),
		Body: logic.ForAll{Var: "ew1", Ref: beginRef("EndWrite"),
			Body: logic.ForAll{Var: "sw2", Ref: endRef("StartWrite"),
				Body: logic.ForAll{Var: "ew2", Ref: beginRef("EndWrite"),
					Body: logic.Implies{
						If: logic.And{
							sameProc("sw1", "ew1"), sameProc("sw2", "ew2"), diffProc("sw1", "sw2"),
						},
						Then: logic.Or{logic.Precedes{X: "ew1", Y: "sw2"}, logic.Precedes{X: "ew2", Y: "sw1"}},
					},
				},
			},
		},
	}
	return logic.And{readerWriter, writerWriter}
}

// ReadersPriority builds the paper's readers-priority property. The
// paper states it over histories: if a read request and a write request
// are pending at the same time, the read is serviced first. A read is
// pending on [Begin(StartRead), End(StartRead)); both requests are
// pending in some common history iff ¬(sr ⇒ bw) ∧ ¬(sw ⇒ br) (the
// down-closure of the two Begins contains neither End); from such a
// history "□(occurred(sw) ⊃ occurred(sr))" holds on every valid history
// sequence iff sr ⇒ sw. The formula below is exactly that reduction.
func ReadersPriorityProp() logic.Formula {
	return logic.ForAll{Var: "br", Ref: beginRef("StartRead"),
		Body: logic.ForAll{Var: "sr", Ref: endRef("StartRead"),
			Body: logic.ForAll{Var: "bw", Ref: beginRef("StartWrite"),
				Body: logic.ForAll{Var: "sw", Ref: endRef("StartWrite"),
					Body: logic.Implies{
						If: logic.And{
							sameProc("br", "sr"), sameProc("bw", "sw"),
							logic.Not{F: logic.Precedes{X: "sr", Y: "bw"}},
							logic.Not{F: logic.Precedes{X: "sw", Y: "br"}},
						},
						Then: logic.Precedes{X: "sr", Y: "sw"},
					},
				},
			},
		},
	}
}

// WritersPriority is the symmetric property: a pending write is serviced
// before any read pending at the same time.
func WritersPriorityProp() logic.Formula {
	return logic.ForAll{Var: "br", Ref: beginRef("StartRead"),
		Body: logic.ForAll{Var: "sr", Ref: endRef("StartRead"),
			Body: logic.ForAll{Var: "bw", Ref: beginRef("StartWrite"),
				Body: logic.ForAll{Var: "sw", Ref: endRef("StartWrite"),
					Body: logic.Implies{
						If: logic.And{
							sameProc("br", "sr"), sameProc("bw", "sw"),
							logic.Not{F: logic.Precedes{X: "sr", Y: "bw"}},
							logic.Not{F: logic.Precedes{X: "sw", Y: "br"}},
						},
						Then: logic.Precedes{X: "sw", Y: "sr"},
					},
				},
			},
		},
	}
}

// ReadsOverlap holds of a computation in which two readers are active
// concurrently — the reader-sharing capability that distinguishes the
// sharing variants from the serializing ones. (Checked per computation;
// a variant "allows sharing" when some legal computation satisfies it.)
func ReadsOverlap() logic.Formula {
	return logic.Exists{Var: "sr1", Ref: endRef("StartRead"),
		Body: logic.Exists{Var: "er1", Ref: beginRef("EndRead"),
			Body: logic.Exists{Var: "sr2", Ref: endRef("StartRead"),
				Body: logic.Exists{Var: "er2", Ref: beginRef("EndRead"),
					Body: logic.And{
						sameProc("sr1", "er1"), sameProc("sr2", "er2"), diffProc("sr1", "sr2"),
						logic.Not{F: logic.Precedes{X: "er1", Y: "sr2"}},
						logic.Not{F: logic.Precedes{X: "er2", Y: "sr1"}},
					},
				},
			},
		},
	}
}
