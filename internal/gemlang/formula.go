package gemlang

import (
	"strconv"

	"gem/internal/core"
	"gem/internal/logic"
)

// Formula grammar (precedence low to high):
//
//	formula  := iff
//	iff      := implies { "<->" implies }
//	implies  := or [ "->" implies ]          (right associative)
//	or       := and { "|" and }
//	and      := unary { "&" unary }
//	unary    := "~" unary | "[]" unary | "<>" unary | primary
//	primary  := "(" quantifier ")" unary
//	          | "(" formula ")"
//	          | "TRUE" | "FALSE"
//	          | "occurred" "(" var ")" | "new" "(" var ")"
//	          | "potential" "(" var ")"
//	          | "distinct" "(" tvar "," tvar ")"
//	          | "PREREQ" "(" ref "->" ref { "->" ref } ")"
//	          | "NDPREREQ" "(" "{" refs "}" "->" ref ")"
//	          | "FORK" "(" ref "->" "{" refs "}" ")"
//	          | "JOIN" "(" "{" refs "}" "->" ref ")"
//	          | relational
//
//	quantifier := ("FORALL"|"EXISTS"|"EXISTS1"|"ATMOST1") binder {"," binder}
//	            | ("FORALLTHREAD"|"EXISTSTHREAD") tbinder {"," tbinder}
//	binder     := var ":" classref
//	tbinder    := tvar ":" threadtype
//
//	relational := term relop term
//	            | var "@" element | var "at" classref | var "in" tvar
//	            | var "|>" var | var "~>" var | var "=>" var | var "||" var
//	            | var ":" classref
//	term       := var | var "." param | INT | STRING | TRUE | FALSE
//	relop      := "=" | "!=" | "<" | "<=" | ">" | ">="
func (p *parser) parseFormula(owner string) (logic.Formula, error) {
	if err := p.enterFormula(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	return p.parseIff(owner)
}

func (p *parser) parseIff(owner string) (logic.Formula, error) {
	left, err := p.parseImplies(owner)
	if err != nil {
		return nil, err
	}
	for p.peek().Is("<->") {
		p.next()
		right, err := p.parseImplies(owner)
		if err != nil {
			return nil, err
		}
		left = logic.Iff{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parseImplies(owner string) (logic.Formula, error) {
	left, err := p.parseOr(owner)
	if err != nil {
		return nil, err
	}
	if p.peek().Is("->") {
		p.next()
		right, err := p.parseImplies(owner)
		if err != nil {
			return nil, err
		}
		return logic.Implies{If: left, Then: right}, nil
	}
	return left, nil
}

func (p *parser) parseOr(owner string) (logic.Formula, error) {
	left, err := p.parseAnd(owner)
	if err != nil {
		return nil, err
	}
	if !p.peek().Is("|") {
		return left, nil
	}
	out := logic.Or{left}
	for p.peek().Is("|") {
		p.next()
		right, err := p.parseAnd(owner)
		if err != nil {
			return nil, err
		}
		out = append(out, right)
	}
	return out, nil
}

func (p *parser) parseAnd(owner string) (logic.Formula, error) {
	left, err := p.parseUnary(owner)
	if err != nil {
		return nil, err
	}
	if !p.peek().Is("&") {
		return left, nil
	}
	out := logic.And{left}
	for p.peek().Is("&") {
		p.next()
		right, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		out = append(out, right)
	}
	return out, nil
}

func (p *parser) parseUnary(owner string) (logic.Formula, error) {
	if err := p.enterFormula(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	switch {
	case p.peek().Is("~"):
		p.next()
		f, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		return logic.Not{F: f}, nil
	case p.peek().Is("[]"):
		p.next()
		f, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		return logic.Box{F: f}, nil
	case p.peek().Is("<>"):
		p.next()
		f, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		return logic.Diamond{F: f}, nil
	default:
		return p.parsePrimary(owner)
	}
}

var quantifierKeywords = map[string]bool{
	"FORALL": true, "EXISTS": true, "EXISTS1": true, "ATMOST1": true,
	"FORALLTHREAD": true, "EXISTSTHREAD": true,
}

func (p *parser) parsePrimary(owner string) (logic.Formula, error) {
	t := p.peek()
	switch {
	case t.Is("("):
		if quantifierKeywords[p.peek2().Text] {
			return p.parseQuantified(owner)
		}
		p.next()
		f, err := p.parseFormula(owner)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	case t.Is("TRUE"):
		p.next()
		return logic.TrueF{}, nil
	case t.Is("FALSE"):
		p.next()
		return logic.FalseF{}, nil
	case t.Is("occurred"), t.Is("new"), t.Is("potential"):
		kw := p.next().Text
		if err := p.expect("("); err != nil {
			return nil, err
		}
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		switch kw {
		case "occurred":
			return logic.Occurred{Var: v}, nil
		case "new":
			return logic.New{Var: v}, nil
		default:
			return logic.Potential{Var: v}, nil
		}
	case t.Is("distinct"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		t1, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		t2, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return logic.ThreadsDistinct{T1: t1, T2: t2}, nil
	case t.Is("COUNT"):
		return p.parseCount(owner)
	case t.Is("FIFO"):
		return p.parseFIFO(owner)
	case t.Is("PREREQ"):
		return p.parsePrereq(owner)
	case t.Is("NDPREREQ"):
		return p.parseNDPrereq(owner)
	case t.Is("FORK"):
		return p.parseForkJoin(owner, true)
	case t.Is("JOIN"):
		return p.parseForkJoin(owner, false)
	case t.Kind == TokIdent || t.Kind == TokInt || t.Kind == TokString:
		return p.parseRelational(owner)
	default:
		return nil, p.errf("expected formula, found %s", t)
	}
}

func (p *parser) parseQuantified(owner string) (logic.Formula, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	kw := p.next().Text
	type binder struct {
		v   string
		ref core.ClassRef
		tt  string
	}
	var binders []binder
	for {
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		var bnd binder
		bnd.v = v
		if kw == "FORALLTHREAD" || kw == "EXISTSTHREAD" {
			tt, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			bnd.tt = tt
		} else {
			ref, err := p.parseClassRef(owner)
			if err != nil {
				return nil, err
			}
			bnd.ref = ref
		}
		binders = append(binders, bnd)
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	// Quantifier scope extends maximally to the right, as in standard
	// first-order notation (parenthesize to limit it).
	body, err := p.parseFormula(owner)
	if err != nil {
		return nil, err
	}
	// Wrap binders inside-out.
	for i := len(binders) - 1; i >= 0; i-- {
		b := binders[i]
		switch kw {
		case "FORALL":
			body = logic.ForAll{Var: b.v, Ref: b.ref, Body: body}
		case "EXISTS":
			body = logic.Exists{Var: b.v, Ref: b.ref, Body: body}
		case "EXISTS1":
			body = logic.ExistsUnique{Var: b.v, Ref: b.ref, Body: body}
		case "ATMOST1":
			body = logic.AtMostOne{Var: b.v, Ref: b.ref, Body: body}
		case "FORALLTHREAD":
			body = logic.ForAllThread{Var: b.v, Type: b.tt, Body: body}
		case "EXISTSTHREAD":
			body = logic.ExistsThread{Var: b.v, Type: b.tt, Body: body}
		}
	}
	return body, nil
}

// parseCount parses COUNT(refA - refB IN min .. max), where max may be
// "*" for unbounded: the counting restriction min ≤ #A − #B ≤ max over
// the current history.
func (p *parser) parseCount(owner string) (logic.Formula, error) {
	p.next() // COUNT
	if err := p.expect("("); err != nil {
		return nil, err
	}
	a, err := p.parseClassRef(owner)
	if err != nil {
		return nil, err
	}
	if err := p.expect("-"); err != nil {
		return nil, err
	}
	bref, err := p.parseClassRef(owner)
	if err != nil {
		return nil, err
	}
	if err := p.expect("IN"); err != nil {
		return nil, err
	}
	min, err := p.expectInt()
	if err != nil {
		return nil, err
	}
	if err := p.expect(".."); err != nil {
		return nil, err
	}
	out := logic.CountDiff{A: a, B: bref, Min: min}
	if p.peek().Is("*") {
		p.next()
		out.NoMax = true
	} else {
		max, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		out.Max = max
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseFIFO parses FIFO(refA.pa -> refB.pb): the k-th B event carries the
// same pb value as the k-th A event's pa.
func (p *parser) parseFIFO(owner string) (logic.Formula, error) {
	p.next() // FIFO
	if err := p.expect("("); err != nil {
		return nil, err
	}
	a, pa, err := p.parseRefWithParam(owner)
	if err != nil {
		return nil, err
	}
	if err := p.expect("->"); err != nil {
		return nil, err
	}
	bref, pb, err := p.parseRefWithParam(owner)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return logic.FIFOValues{A: a, PA: pa, B: bref, PB: pb}, nil
}

// parseRefWithParam parses elem.Class.param (at least two components).
func (p *parser) parseRefWithParam(owner string) (core.ClassRef, string, error) {
	full, err := p.parseDotted()
	if err != nil {
		return core.ClassRef{}, "", err
	}
	rest, param := splitRef(full)
	if rest == "" {
		return core.ClassRef{}, "", p.errf("expected Class.param, found %q", full)
	}
	elem, class := splitRef(rest)
	if elem == "" && owner != "" {
		elem = owner
	}
	return core.Ref(elem, class), param, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.peek()
	if t.Kind != TokInt {
		return 0, p.errf("expected integer, found %s", t)
	}
	p.next()
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *parser) parsePrereq(owner string) (logic.Formula, error) {
	p.next() // PREREQ
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var refs []core.ClassRef
	for {
		ref, err := p.parseClassRef(owner)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		if p.peek().Is("->") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if len(refs) < 2 {
		return nil, p.errf("PREREQ needs at least two classes")
	}
	return logic.PrereqChain(refs...), nil
}

func (p *parser) parseNDPrereq(owner string) (logic.Formula, error) {
	p.next() // NDPREREQ
	if err := p.expect("("); err != nil {
		return nil, err
	}
	set, err := p.parseRefSet(owner)
	if err != nil {
		return nil, err
	}
	// An event of two overlapping classes is one enabler, not two, and
	// Source has no rendering of that union (see sourceUnion).
	if a, b, ok := overlapping(set); ok {
		return nil, p.errf("NDPREREQ classes %s and %s overlap", a, b)
	}
	if err := p.expect("->"); err != nil {
		return nil, err
	}
	ref, err := p.parseClassRef(owner)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return logic.NDPrereq(set, ref), nil
}

func (p *parser) parseForkJoin(owner string, fork bool) (logic.Formula, error) {
	p.next() // FORK or JOIN
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out logic.Formula
	if fork {
		ref, err := p.parseClassRef(owner)
		if err != nil {
			return nil, err
		}
		if err := p.expect("->"); err != nil {
			return nil, err
		}
		set, err := p.parseRefSet(owner)
		if err != nil {
			return nil, err
		}
		out = logic.Fork(ref, set)
	} else {
		set, err := p.parseRefSet(owner)
		if err != nil {
			return nil, err
		}
		if err := p.expect("->"); err != nil {
			return nil, err
		}
		ref, err := p.parseClassRef(owner)
		if err != nil {
			return nil, err
		}
		out = logic.Join(set, ref)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseRefSet(owner string) ([]core.ClassRef, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []core.ClassRef
	for {
		ref, err := p.parseClassRef(owner)
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return out, nil
}

// term is a relational operand.
type term struct {
	isVar   bool
	varName string
	param   string // non-empty for var.param
	lit     core.Value
}

func (p *parser) parseTerm() (term, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return term{}, p.errf("bad integer %q", t.Text)
		}
		return term{lit: core.Int(n)}, nil
	case TokString:
		p.next()
		return term{lit: core.Str(t.Text)}, nil
	case TokKeyword:
		if t.Is("TRUE") || t.Is("FALSE") {
			p.next()
			return term{lit: core.Bool(t.Text == "TRUE")}, nil
		}
		return term{}, p.errf("expected term, found %s", t)
	case TokIdent:
		v := p.next().Text
		if p.peek().Is(".") && p.peek2().Kind == TokIdent {
			p.next()
			param, err := p.expectIdent()
			if err != nil {
				return term{}, err
			}
			return term{isVar: true, varName: v, param: param}, nil
		}
		return term{isVar: true, varName: v}, nil
	default:
		return term{}, p.errf("expected term, found %s", t)
	}
}

var relops = map[string]logic.CmpOp{
	"=": logic.OpEq, "!=": logic.OpNe, "<": logic.OpLt,
	"<=": logic.OpLe, ">": logic.OpGt, ">=": logic.OpGe,
}

func (p *parser) parseRelational(owner string) (logic.Formula, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	// Event-relation operators require a bare variable on the left.
	if left.isVar && left.param == "" {
		switch {
		case t.Is("@"):
			p.next()
			elem, err := p.parseDotted()
			if err != nil {
				return nil, err
			}
			return logic.AtElement{Var: left.varName, Element: elem}, nil
		case t.Is("at"):
			p.next()
			ref, err := p.parseClassRef(owner)
			if err != nil {
				return nil, err
			}
			return logic.AtControl{Var: left.varName, Ref: ref}, nil
		case t.Is("in"):
			p.next()
			tv, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return logic.OnThread{X: left.varName, T: tv}, nil
		case t.Is("|>"):
			p.next()
			rv, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return logic.Enables{X: left.varName, Y: rv}, nil
		case t.Is("~>"):
			p.next()
			rv, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return logic.ElemOrdered{X: left.varName, Y: rv}, nil
		case t.Is("=>"):
			p.next()
			rv, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return logic.Precedes{X: left.varName, Y: rv}, nil
		case t.Is("||"):
			p.next()
			rv, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return logic.ConcurrentWith{X: left.varName, Y: rv}, nil
		case t.Is(":"):
			p.next()
			ref, err := p.parseClassRef(owner)
			if err != nil {
				return nil, err
			}
			return logic.InClass{Var: left.varName, Ref: ref}, nil
		}
	}
	op, ok := relops[t.Text]
	if !ok || t.Kind != TokOp {
		return nil, p.errf("expected relational operator, found %s", t)
	}
	p.next()
	right, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return buildComparison(left, op, right, p)
}

func buildComparison(left term, op logic.CmpOp, right term, p *parser) (logic.Formula, error) {
	switch {
	case left.isVar && left.param == "" && right.isVar && right.param == "":
		// Bare variables: event identity.
		switch op {
		case logic.OpEq:
			return logic.SameEvent{X: left.varName, Y: right.varName}, nil
		case logic.OpNe:
			return logic.Not{F: logic.SameEvent{X: left.varName, Y: right.varName}}, nil
		default:
			return nil, p.errf("events support only = and !=")
		}
	case left.isVar && left.param != "" && right.isVar && right.param != "":
		return logic.ParamCmp{X: left.varName, P: left.param, Op: op, Y: right.varName, Q: right.param}, nil
	case left.isVar && left.param != "" && !right.isVar:
		return logic.ParamConst{X: left.varName, P: left.param, Op: op, V: right.lit}, nil
	case !left.isVar && right.isVar && right.param != "":
		return logic.ParamConst{X: right.varName, P: right.param, Op: flip(op), V: left.lit}, nil
	default:
		return nil, p.errf("invalid comparison operands")
	}
}

func flip(op logic.CmpOp) logic.CmpOp {
	switch op {
	case logic.OpLt:
		return logic.OpGt
	case logic.OpLe:
		return logic.OpGe
	case logic.OpGt:
		return logic.OpLt
	case logic.OpGe:
		return logic.OpLe
	default:
		return op
	}
}
