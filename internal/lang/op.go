package lang

import (
	"slices"

	"gem/internal/core"
	"gem/internal/explore"
	"gem/internal/spec"
)

// Op emits an event of class Class, with integer parameters evaluated in
// the process's Env. With Element == "" the event occurs at the
// process's own element, modelling its local actions (computing,
// producing an item, …).
//
// With Element set, the event occurs at that external shared element:
// the data a monitor, controller or server guards, which the paper keeps
// outside the primitive ("the data itself must be located outside of
// the monitor"). Every such event records the process as "proc", and
// two classes get shared-variable semantics there: Assign stores its
// "newval" parameter in the element's cell (an Assign without one leaves
// the cell as it is), and Getval reports the cell as "oldval".
type Op struct {
	Class   string
	Params  map[string]Expr
	Element string
}

// Exec emits op for process proc, named name, on log, with its
// parameters evaluated in env. cells holds the external elements'
// values; an Assign updates its element's.
func (op Op) Exec(log *explore.Log, proc int, name string, env Env, cells map[string]int64) {
	list := make([]core.Param, 0, 4)
	for k, e := range op.Params {
		list = append(list, core.P(k, core.Int(e.Eval(env))))
	}
	elem := name
	if op.Element != "" {
		elem = op.Element
		list = append(list, core.P("proc", core.Str(name)))
		if op.Class == "Getval" {
			list = append(list, core.P("oldval", core.Int(cells[op.Element])))
		}
	}
	params := core.NewParams(list...)
	if op.Element != "" && op.Class == "Assign" {
		if v, ok := params.Get("newval"); ok {
			cells[op.Element] = v.I
		}
	}
	log.Emit(proc, elem, op.Class, params)
}

// Decls collects the declarations a program's Op statements need: each
// process's local op classes, and the external elements all processes
// touch. The zero value is ready to use.
type Decls struct {
	// ext maps each external element to its classes' parameter names.
	ext   map[string]map[string]map[string]bool
	order []string // external elements in first-use order
}

// Process takes one process's Op statements in walk order. It returns
// the local op classes to declare on the process's element, in
// first-use order with their parameters sorted, and the external
// elements the process touches, in first-use order.
func (d *Decls) Process(ops []Op) (local []spec.EventClassDecl, external []string) {
	if d.ext == nil {
		d.ext = make(map[string]map[string]map[string]bool)
	}
	params := make(map[string]map[string]bool) // local class -> params
	var classes []string
	touched := make(map[string]bool)
	for _, op := range ops {
		if op.Element == "" {
			if params[op.Class] == nil {
				params[op.Class] = make(map[string]bool)
				classes = append(classes, op.Class)
			}
			for p := range op.Params {
				params[op.Class][p] = true
			}
			continue
		}
		if !touched[op.Element] {
			touched[op.Element] = true
			external = append(external, op.Element)
		}
		if d.ext[op.Element] == nil {
			d.ext[op.Element] = make(map[string]map[string]bool)
			d.order = append(d.order, op.Element)
		}
		ps := d.ext[op.Element][op.Class]
		if ps == nil {
			ps = make(map[string]bool)
			d.ext[op.Element][op.Class] = ps
		}
		for p := range op.Params {
			ps[p] = true
		}
		ps["proc"] = true
		if op.Class == "Getval" {
			ps["oldval"] = true
		}
	}
	for _, class := range classes {
		var decls []spec.ParamDecl
		for _, p := range sortedKeys(params[class]) {
			decls = append(decls, spec.ParamDecl{Name: p, Type: "INTEGER"})
		}
		local = append(local, spec.EventClassDecl{Name: class, Params: decls})
	}
	return local, external
}

// Declare adds to s every external element the processes touched, in
// first-use order, with its classes in name order and their parameters
// sorted ("proc" a NAME, the rest INTEGERs). An element with both
// Assign and Getval classes gets the paper's reads-last-assign
// restriction.
func (d *Decls) Declare(s *spec.Spec) {
	for _, elem := range d.order {
		classes := d.ext[elem]
		decl := &spec.ElementDecl{Name: elem}
		for _, c := range sortedKeys(classes) {
			ec := spec.EventClassDecl{Name: c}
			for _, p := range sortedKeys(classes[c]) {
				typ := "INTEGER"
				if p == "proc" {
					typ = "NAME"
				}
				ec.Params = append(ec.Params, spec.ParamDecl{Name: p, Type: typ})
			}
			decl.Events = append(decl.Events, ec)
		}
		if classes["Assign"] != nil && classes["Getval"] != nil {
			decl.Restrictions = append(decl.Restrictions, spec.Restriction{
				Name: elem + ".reads-last-assign",
				F:    spec.ReadsLastAssign(elem),
			})
		}
		s.AddElement(decl)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
