// Package life implements the paper's second distributed application: an
// asynchronous, distributed version of Conway's Game of Life. Each cell
// is a process holding its own state; after computing generation g it
// sends the new state to its neighbours and waits until it has received
// all their generation-g states before computing g+1. No global clock or
// barrier exists — cells may run generations apart — yet the computed
// board sequence equals the synchronous reference on every schedule
// (functional correctness, which the paper reports proving).
//
// Event model:
//
//	cell.<x>.<y>            Compute(gen, alive)
//	lchan.<x1>.<y1>.<x2>.<y2>  Send(gen, alive), Recv(gen, alive)
package life

import (
	"fmt"
	"math/rand"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/spec"
)

// Board is a rectangular Life board; true = alive. Boards do not wrap
// (cells outside are dead).
type Board [][]bool

// NewBoard builds a dead board of the given size.
func NewBoard(w, h int) Board {
	b := make(Board, h)
	for y := range b {
		b[y] = make([]bool, w)
	}
	return b
}

// Width and Height report dimensions.
func (b Board) Width() int  { return len(b[0]) }
func (b Board) Height() int { return len(b) }

// Clone copies the board.
func (b Board) Clone() Board {
	out := make(Board, len(b))
	for y := range b {
		out[y] = append([]bool(nil), b[y]...)
	}
	return out
}

// Equal compares two boards.
func (b Board) Equal(o Board) bool {
	if len(b) != len(o) {
		return false
	}
	for y := range b {
		if len(b[y]) != len(o[y]) {
			return false
		}
		for x := range b[y] {
			if b[y][x] != o[y][x] {
				return false
			}
		}
	}
	return true
}

// String renders the board with # for live cells.
func (b Board) String() string {
	var sb strings.Builder
	for _, row := range b {
		for _, alive := range row {
			if alive {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// neighbours of (x, y) within the board (8-neighbourhood, no wrap).
func neighbours(b Board, x, y int) [][2]int {
	var out [][2]int
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := x+dx, y+dy
			if nx >= 0 && nx < b.Width() && ny >= 0 && ny < b.Height() {
				out = append(out, [2]int{nx, ny})
			}
		}
	}
	return out
}

// SyncStep computes one synchronous generation — the reference
// implementation the asynchronous version is verified against.
func SyncStep(b Board) Board {
	next := NewBoard(b.Width(), b.Height())
	for y := 0; y < b.Height(); y++ {
		for x := 0; x < b.Width(); x++ {
			live := 0
			for _, n := range neighbours(b, x, y) {
				if b[n[1]][n[0]] {
					live++
				}
			}
			if b[y][x] {
				next[y][x] = live == 2 || live == 3
			} else {
				next[y][x] = live == 3
			}
		}
	}
	return next
}

// SyncRun computes g synchronous generations.
func SyncRun(b Board, g int) Board {
	for i := 0; i < g; i++ {
		b = SyncStep(b)
	}
	return b
}

// CellElement names the element of cell (x, y).
func CellElement(x, y int) string { return fmt.Sprintf("cell.%d.%d", x, y) }

// ChanElement names the channel element from one cell to another.
func ChanElement(x1, y1, x2, y2 int) string {
	return fmt.Sprintf("lchan.%d.%d.%d.%d", x1, y1, x2, y2)
}

// Run is one asynchronous execution.
type Run struct {
	Comp  *core.Computation
	Final Board
}

// cellState is the per-cell simulator state.
type cellState struct {
	alive bool
	gen   int
	// inbox[g] = number of neighbour states of generation g received.
	received map[int]int
	// neighbour liveness counts per generation.
	liveCount map[int]int
	lastEv    int
}

type message struct {
	from, to [2]int
	gen      int
	alive    bool
	sendEv   int
}

// AsyncRun executes the asynchronous algorithm for g generations under a
// seeded random schedule, recording the GEM computation. The schedule
// chooses arbitrarily among ready cells and deliverable messages, so
// cells drift generations apart; per-channel delivery stays FIFO (each
// neighbour link is an element).
func AsyncRun(start Board, gens int, seed int64) (Run, error) {
	return asyncRun(start, gens, seed, true)
}

func asyncRun(start Board, gens int, seed int64, barrier bool) (Run, error) {
	rng := rand.New(rand.NewSource(seed))
	w, h := start.Width(), start.Height()
	cells := make(map[[2]int]*cellState, w*h)
	var inflight []message

	b := core.NewBuilder()
	emit := func(cell *cellState, elem, class string, params core.Params, extra ...core.EventID) core.EventID {
		id := b.Event(elem, class, params)
		if cell != nil && cell.lastEv >= 0 {
			b.Enable(core.EventID(cell.lastEv), id)
		}
		for _, e := range extra {
			b.Enable(e, id)
		}
		if cell != nil {
			cell.lastEv = int(id)
		}
		return id
	}

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cells[[2]int{x, y}] = &cellState{
				alive:     start[y][x],
				received:  make(map[int]int),
				liveCount: make(map[int]int),
				lastEv:    -1,
			}
		}
	}
	// Generation 0: every cell announces its initial state.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pos := [2]int{x, y}
			cell := cells[pos]
			emit(cell, CellElement(x, y), "Compute", core.NewParams(
				core.P("gen", core.Int(0)),
				core.P("alive", core.Bool(cell.alive)),
			))
			for _, n := range neighbours(start, x, y) {
				send := emit(cell, ChanElement(x, y, n[0], n[1]), "Send", core.NewParams(
					core.P("gen", core.Int(0)),
					core.P("alive", core.Bool(cell.alive)),
				))
				inflight = append(inflight, message{from: pos, to: n, gen: 0, alive: cell.alive, sendEv: int(send)})
			}
		}
	}

	for {
		// Ready cells: all neighbour states of the current generation
		// received, and more generations to go.
		// Deterministic cell order keeps runs reproducible per seed (map
		// iteration order would not be).
		var ready [][2]int
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pos := [2]int{x, y}
				cell := cells[pos]
				need := len(neighbours(start, x, y))
				if !barrier && need > 0 {
					need-- // mutant: compute one report early
				}
				if cell.gen < gens && cell.received[cell.gen] >= need {
					ready = append(ready, pos)
				}
			}
		}
		if len(ready) == 0 && len(inflight) == 0 {
			break
		}
		// Choose among: delivering any inflight message, or stepping any
		// ready cell.
		choice := rng.Intn(len(ready) + len(inflight))
		if choice < len(ready) {
			pos := ready[choice]
			cell := cells[pos]
			live := cell.liveCount[cell.gen]
			if cell.alive {
				cell.alive = live == 2 || live == 3
			} else {
				cell.alive = live == 3
			}
			cell.gen++
			emit(cell, CellElement(pos[0], pos[1]), "Compute", core.NewParams(
				core.P("gen", core.Int(int64(cell.gen))),
				core.P("alive", core.Bool(cell.alive)),
			))
			if cell.gen < gens {
				for _, n := range neighbours(start, pos[0], pos[1]) {
					send := emit(cell, ChanElement(pos[0], pos[1], n[0], n[1]), "Send", core.NewParams(
						core.P("gen", core.Int(int64(cell.gen))),
						core.P("alive", core.Bool(cell.alive)),
					))
					inflight = append(inflight, message{from: pos, to: n, gen: cell.gen, alive: cell.alive, sendEv: int(send)})
				}
			}
			continue
		}
		// Deliver a message. FIFO per channel: deliver the earliest
		// inflight message of the chosen channel.
		mi := choice - len(ready)
		ch := inflight[mi]
		for i := 0; i < mi; i++ {
			if inflight[i].from == ch.from && inflight[i].to == ch.to {
				ch = inflight[i]
				mi = i
				break
			}
		}
		inflight = append(inflight[:mi], inflight[mi+1:]...)
		cell := cells[ch.to]
		emit(cell, ChanElement(ch.from[0], ch.from[1], ch.to[0], ch.to[1]), "Recv", core.NewParams(
			core.P("gen", core.Int(int64(ch.gen))),
			core.P("alive", core.Bool(ch.alive)),
		), core.EventID(ch.sendEv))
		cell.received[ch.gen]++
		if ch.alive {
			cell.liveCount[ch.gen]++
		}
	}

	comp, err := b.Build()
	if err != nil {
		return Run{}, err
	}
	final := NewBoard(w, h)
	for pos, cell := range cells {
		if cell.gen != gens {
			return Run{}, fmt.Errorf("life: cell %v stopped at generation %d of %d", pos, cell.gen, gens)
		}
		final[pos[1]][pos[0]] = cell.alive
	}
	return Run{Comp: comp, Final: final}, nil
}

// Spec builds the GEM specification: cell and channel elements with
// message-integrity and generation-ordering restrictions.
func Spec(b Board) *spec.Spec {
	s := spec.New("life")
	genParams := []spec.ParamDecl{{Name: "gen", Type: "INTEGER"}, {Name: "alive", Type: "BOOLEAN"}}
	for y := 0; y < b.Height(); y++ {
		for x := 0; x < b.Width(); x++ {
			s.AddElement(&spec.ElementDecl{
				Name:   CellElement(x, y),
				Events: []spec.EventClassDecl{{Name: "Compute", Params: genParams}},
				Restrictions: []spec.Restriction{{
					Name: CellElement(x, y) + ".generations-ascend",
					F:    generationsAscend(CellElement(x, y)),
				}},
			})
			for _, n := range neighbours(b, x, y) {
				elem := ChanElement(x, y, n[0], n[1])
				s.AddElement(&spec.ElementDecl{
					Name:   elem,
					Events: []spec.EventClassDecl{{Name: "Send", Params: genParams}, {Name: "Recv", Params: genParams}},
					Restrictions: []spec.Restriction{{
						Name: elem + ".integrity",
						F:    channelIntegrity(elem),
					}},
				})
			}
		}
	}
	return s
}

func generationsAscend(elem string) logic.Formula {
	return logic.ForAll{Var: "_a", Ref: core.Ref(elem, "Compute"),
		Body: logic.ForAll{Var: "_b", Ref: core.Ref(elem, "Compute"),
			Body: logic.Implies{
				If:   logic.ElemOrdered{X: "_a", Y: "_b"},
				Then: logic.ParamCmp{X: "_a", P: "gen", Op: logic.OpLt, Y: "_b", Q: "gen"},
			},
		},
	}
}

func channelIntegrity(elem string) logic.Formula {
	return logic.And{
		logic.Prereq(core.Ref(elem, "Send"), core.Ref(elem, "Recv")),
		logic.ForAll{Var: "_s", Ref: core.Ref(elem, "Send"),
			Body: logic.ForAll{Var: "_r", Ref: core.Ref(elem, "Recv"),
				Body: logic.Implies{
					If: logic.Enables{X: "_s", Y: "_r"},
					Then: logic.And{
						logic.ParamCmp{X: "_s", P: "gen", Op: logic.OpEq, Y: "_r", Q: "gen"},
						logic.ParamCmp{X: "_s", P: "alive", Op: logic.OpEq, Y: "_r", Q: "alive"},
					},
				},
			},
		},
	}
}

// GenerationCausality builds the restriction that a cell's generation-g
// computation (g ≥ 1) temporally follows every neighbour's generation
// g−1 computation — the asynchronous barrier, event-order style.
func GenerationCausality(b Board, gens int) logic.Formula {
	var out logic.And
	for y := 0; y < b.Height(); y++ {
		for x := 0; x < b.Width(); x++ {
			for _, n := range neighbours(b, x, y) {
				for g := 1; g <= gens; g++ {
					out = append(out, logic.ForAll{
						Var: "_c", Ref: core.Ref(CellElement(x, y), "Compute"),
						Body: logic.Implies{
							If: logic.ParamConst{X: "_c", P: "gen", Op: logic.OpEq, V: core.Int(int64(g))},
							Then: logic.Exists{
								Var: "_n", Ref: core.Ref(CellElement(n[0], n[1]), "Compute"),
								Body: logic.And{
									logic.ParamConst{X: "_n", P: "gen", Op: logic.OpEq, V: core.Int(int64(g - 1))},
									logic.Precedes{X: "_n", Y: "_c"},
								},
							},
						},
					})
				}
			}
		}
	}
	return out
}
