package gemlang

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/thread"
)

// Parse compiles GEM specification source text into the spec IR.
//
// Top-level declarations:
//
//	SPEC name
//	ELEMENT TYPE Name [(p1, p2)] [: Base[(args)] ADD] body END
//	ELEMENT Name : TypeName[(args)]
//	ELEMENT Name body END
//	GROUP TYPE Name [(params)] MEMBERS(m1, m2) [PORTS(m.Class, …)]
//	      [RESTRICTIONS …] END
//	GROUP Name : TypeName[(args)]
//	GROUP Name MEMBERS(e1, e2) [PORTS(…)] [RESTRICTIONS …] END
//	THREAD Name = (ClassRef :: ClassRef :: …)
//	RESTRICTION ["label":] formula ;
//
// Element bodies: [EVENTS eventDecl…] [RESTRICTIONS formula ; …].
func Parse(src string) (*spec.Spec, error) {
	_, sp := obs.StartSpan(nil, "parse")
	defer sp.End()
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:       toks,
		out:        spec.New("spec"),
		elemTypes:  make(map[string]*typeDef),
		groupTypes: make(map[string]*typeDef),
	}
	if err := p.parseSpec(); err != nil {
		return nil, err
	}
	return p.out, nil
}

// ParseFormula compiles a single restriction formula (no trailing
// semicolon required). Useful for tests and ad-hoc checking.
func ParseFormula(src string) (logic.Formula, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, out: spec.New("formula")}
	f, err := p.parseFormula("")
	if err != nil {
		return nil, err
	}
	if !p.peek().Is(";") && p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s after formula", p.peek())
	}
	return f, nil
}

// typeDef stores a type's formal parameters and unparsed body tokens —
// the paper's text-substitution semantics made literal.
type typeDef struct {
	name   string
	params []string
	body   []Token
}

type parser struct {
	toks       []Token
	pos        int
	out        *spec.Spec
	elemTypes  map[string]*typeDef
	groupTypes map[string]*typeDef
	marks      *SourceMap // non-nil only for ParseWithPositions
	depth      int        // formula nesting depth (guards the recursion)
}

// maxFormulaDepth bounds formula nesting. Recursive-descent parsing uses
// the Go stack, so pathological inputs (fuzzing found kilobytes of "~"
// or "(") must be rejected, not crash the process.
const maxFormulaDepth = 512

func (p *parser) enterFormula() error {
	p.depth++
	if p.depth > maxFormulaDepth {
		return p.errf("formula nesting exceeds %d levels", maxFormulaDepth)
	}
	return nil
}

func (p *parser) peek() Token  { return p.toks[p.pos] }
func (p *parser) peek2() Token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("gemlang:%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if !p.peek().Is(text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", p.peek())
	}
	return p.next().Text, nil
}

func (p *parser) parseSpec() error {
	for p.peek().Kind != TokEOF {
		t := p.peek()
		switch {
		case t.Is("SPEC"):
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.out.Name = name
		case t.Is("ELEMENT"):
			if err := p.parseElementDecl(); err != nil {
				return err
			}
		case t.Is("GROUP"):
			if err := p.parseGroupDecl(); err != nil {
				return err
			}
		case t.Is("THREAD"):
			if err := p.parseThreadDecl(); err != nil {
				return err
			}
		case t.Is("RESTRICTION"):
			p.next()
			name := "restriction"
			if p.peek().Kind == TokString {
				name = p.next().Text
				if err := p.expect(":"); err != nil {
					return err
				}
			}
			f, err := p.parseFormula("")
			if err != nil {
				return err
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			if p.marks != nil {
				p.marks.mark(p.marks.Restrictions, name, t)
			}
			p.out.AddRestriction(name, f)
		default:
			return p.errf("unexpected %s at top level", t)
		}
	}
	return nil
}

// --- elements -------------------------------------------------------------

func (p *parser) parseElementDecl() error {
	at := p.peek()
	p.next() // ELEMENT
	if p.peek().Is("TYPE") {
		p.next()
		return p.parseElementType()
	}
	name, err := p.parseDotted()
	if err != nil {
		return err
	}
	if p.marks != nil {
		p.marks.mark(p.marks.Elements, name, at)
	}
	if p.peek().Is(":") {
		p.next()
		return p.instantiateElementType(name)
	}
	decl, err := p.parseElementBody(name)
	if err != nil {
		return err
	}
	if err := p.expect("END"); err != nil {
		return err
	}
	p.out.AddElement(decl)
	return nil
}

func (p *parser) parseElementType() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	params, err := p.parseFormalParams()
	if err != nil {
		return err
	}
	var body []Token
	// Refinement: ELEMENT TYPE New [(params)] : Base[(args)] ADD body END.
	if p.peek().Is(":") {
		p.next()
		_, baseBody, err := p.substitutedTypeBody(p.elemTypes, "element")
		if err != nil {
			return err
		}
		if err := p.expect("ADD"); err != nil {
			return err
		}
		body = append(body, baseBody...)
	}
	rest, err := p.captureUntilEND()
	if err != nil {
		return err
	}
	body = append(body, rest...)
	p.elemTypes[name] = &typeDef{name: name, params: params, body: body}
	return nil
}

// substitutedTypeBody parses "TypeName[(args)]" and returns the type's
// body tokens with formal parameters textually substituted by the
// arguments.
func (p *parser) substitutedTypeBody(table map[string]*typeDef, kind string) (string, []Token, error) {
	typeName, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	def, ok := table[typeName]
	if !ok {
		return "", nil, p.errf("unknown %s type %s", kind, typeName)
	}
	args, err := p.parseTypeArgs()
	if err != nil {
		return "", nil, err
	}
	if len(args) != len(def.params) {
		return "", nil, p.errf("%s type %s expects %d argument(s), got %d", kind, typeName, len(def.params), len(args))
	}
	subst := make(map[string][]Token, len(def.params))
	for i, formal := range def.params {
		subst[formal] = args[i]
	}
	return typeName, substituteTokens(def.body, subst), nil
}

func (p *parser) instantiateElementType(name string) error {
	typeName, body, err := p.substitutedTypeBody(p.elemTypes, "element")
	if err != nil {
		return err
	}
	sub := &parser{
		toks:       append(append([]Token(nil), body...), Token{Kind: TokEOF}),
		out:        p.out,
		elemTypes:  p.elemTypes,
		groupTypes: p.groupTypes,
		marks:      p.marks,
	}
	decl, err := sub.parseElementBody(name)
	if err != nil {
		return err
	}
	if sub.peek().Kind != TokEOF {
		return fmt.Errorf("gemlang: trailing tokens in element type body: %s", sub.peek())
	}
	decl.TypeName = typeName
	p.out.AddElement(decl)
	return nil
}

// parseElementBody parses [EVENTS …] [RESTRICTIONS …] for the named
// element. Unqualified class references inside the restrictions resolve
// to the element's own classes when declared there.
func (p *parser) parseElementBody(name string) (*spec.ElementDecl, error) {
	decl := &spec.ElementDecl{Name: name}
	if p.peek().Is("EVENTS") {
		p.next()
		for p.peek().Kind == TokIdent {
			ec, err := p.parseEventClassDecl()
			if err != nil {
				return nil, err
			}
			decl.Events = append(decl.Events, ec)
		}
	}
	if p.peek().Is("RESTRICTIONS") {
		p.next()
		n := 0
		for !p.peek().Is("END") && p.peek().Kind != TokEOF {
			at := p.peek()
			label := ""
			if p.peek().Kind == TokString {
				label = p.next().Text
				if err := p.expect(":"); err != nil {
					return nil, err
				}
			}
			f, err := p.parseFormula(name)
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			n++
			if label == "" {
				label = fmt.Sprintf("%s.restriction-%d", name, n)
			}
			if p.marks != nil {
				p.marks.mark(p.marks.Restrictions, label, at)
			}
			decl.Restrictions = append(decl.Restrictions, spec.Restriction{Name: label, F: f})
		}
	}
	return decl, nil
}

func (p *parser) parseEventClassDecl() (spec.EventClassDecl, error) {
	name, err := p.expectIdent()
	if err != nil {
		return spec.EventClassDecl{}, err
	}
	ec := spec.EventClassDecl{Name: name}
	if p.peek().Is("(") {
		p.next()
		for {
			pname, err := p.expectIdent()
			if err != nil {
				return ec, err
			}
			if err := p.expect(":"); err != nil {
				return ec, err
			}
			ptype, err := p.expectIdent()
			if err != nil {
				return ec, err
			}
			ec.Params = append(ec.Params, spec.ParamDecl{Name: pname, Type: ptype})
			if p.peek().Is(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return ec, err
		}
	}
	return ec, nil
}

// --- groups ---------------------------------------------------------------

func (p *parser) parseGroupDecl() error {
	at := p.peek()
	p.next() // GROUP
	if p.peek().Is("TYPE") {
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		params, err := p.parseFormalParams()
		if err != nil {
			return err
		}
		body, err := p.captureUntilEND()
		if err != nil {
			return err
		}
		p.groupTypes[name] = &typeDef{name: name, params: params, body: body}
		return nil
	}
	name, err := p.parseDotted()
	if err != nil {
		return err
	}
	if p.marks != nil {
		p.marks.mark(p.marks.Groups, name, at)
	}
	if p.peek().Is(":") {
		p.next()
		return p.instantiateGroupType(name)
	}
	decl, err := p.parseGroupBody(name, nil)
	if err != nil {
		return err
	}
	if err := p.expect("END"); err != nil {
		return err
	}
	p.out.AddGroup(decl)
	return nil
}

// instantiateGroupType stamps out a group instance: member identifiers in
// the type body are prefixed with "<instance>." so each instance gets its
// own member names, then the body is re-parsed.
func (p *parser) instantiateGroupType(name string) error {
	typeName, body, err := p.substitutedTypeBody(p.groupTypes, "group")
	if err != nil {
		return err
	}
	members := memberNamesOf(body)
	subst := make(map[string][]Token, len(members))
	for _, m := range members {
		subst[m] = []Token{
			{Kind: TokIdent, Text: name},
			{Kind: TokOp, Text: "."},
			{Kind: TokIdent, Text: m},
		}
	}
	body = substituteTokens(body, subst)
	sub := &parser{
		toks:       append(append([]Token(nil), body...), Token{Kind: TokEOF}),
		out:        p.out,
		elemTypes:  p.elemTypes,
		groupTypes: p.groupTypes,
		marks:      p.marks,
	}
	decl, err := sub.parseGroupBody(name, nil)
	if err != nil {
		return err
	}
	if sub.peek().Kind != TokEOF {
		return fmt.Errorf("gemlang: trailing tokens in group type body: %s", sub.peek())
	}
	decl.TypeName = typeName
	p.out.AddGroup(decl)
	return nil
}

// memberNamesOf scans a group type body for the MEMBERS(...) list.
func memberNamesOf(body []Token) []string {
	var out []string
	for i := 0; i < len(body); i++ {
		if !body[i].Is("MEMBERS") {
			continue
		}
		for j := i + 1; j < len(body); j++ {
			if body[j].Is(")") {
				return out
			}
			if body[j].Kind == TokIdent {
				// Only the first component of a dotted member counts.
				if j == i+2 || body[j-1].Is(",") || body[j-1].Is("(") {
					out = append(out, body[j].Text)
				}
			}
		}
	}
	return out
}

func (p *parser) parseGroupBody(name string, _ []string) (*spec.GroupDecl, error) {
	decl := &spec.GroupDecl{Name: name}
	if err := p.expect("MEMBERS"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		m, err := p.parseDotted()
		if err != nil {
			return nil, err
		}
		decl.Members = append(decl.Members, m)
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.peek().Is("PORTS") {
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			full, err := p.parseDotted()
			if err != nil {
				return nil, err
			}
			elem, class := splitRef(full)
			if elem == "" {
				return nil, p.errf("port %q must be element.Class", full)
			}
			decl.Ports = append(decl.Ports, core.Port{Element: elem, Class: class})
			if p.peek().Is(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().Is("RESTRICTIONS") {
		p.next()
		n := 0
		for !p.peek().Is("END") && p.peek().Kind != TokEOF {
			at := p.peek()
			label := ""
			if p.peek().Kind == TokString {
				label = p.next().Text
				if err := p.expect(":"); err != nil {
					return nil, err
				}
			}
			f, err := p.parseFormula("")
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			n++
			if label == "" {
				label = fmt.Sprintf("%s.restriction-%d", name, n)
			}
			if p.marks != nil {
				p.marks.mark(p.marks.Restrictions, label, at)
			}
			decl.Restrictions = append(decl.Restrictions, spec.Restriction{Name: label, F: f})
		}
	}
	return decl, nil
}

// --- threads ----------------------------------------------------------

func (p *parser) parseThreadDecl() error {
	at := p.peek()
	p.next() // THREAD
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.marks != nil {
		p.marks.mark(p.marks.Threads, name, at)
	}
	if err := p.expect("="); err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	var path []core.ClassRef
	for {
		ref, err := p.parseClassRef("")
		if err != nil {
			return err
		}
		path = append(path, ref)
		if p.peek().Is("::") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	p.out.AddThread(thread.Type{Name: name, Path: path})
	return nil
}

// --- shared helpers ---------------------------------------------------

// parseFormalParams parses an optional "(p1, p2)" list of formal type
// parameters.
func (p *parser) parseFormalParams() ([]string, error) {
	if !p.peek().Is("(") {
		return nil, nil
	}
	p.next()
	var out []string
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		// Tolerate "name: KIND" annotations as in the paper (t:TYPE);
		// the kind may be any word, including keywords like TYPE.
		if p.peek().Is(":") {
			p.next()
			k := p.peek()
			if k.Kind != TokIdent && k.Kind != TokKeyword {
				return nil, p.errf("expected parameter kind, found %s", k)
			}
			p.next()
		}
		if p.peek().Is(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return out, nil
}

// parseTypeArgs parses an optional "(arg, arg)" list; each argument is a
// token run (identifier, dotted name, or literal).
func (p *parser) parseTypeArgs() ([][]Token, error) {
	if !p.peek().Is("(") {
		return nil, nil
	}
	p.next()
	var out [][]Token
	var cur []Token
	depth := 0
	for {
		t := p.peek()
		switch {
		case t.Kind == TokEOF:
			return nil, p.errf("unterminated type argument list")
		case t.Is("("):
			depth++
			cur = append(cur, p.next())
		case t.Is(")"):
			if depth == 0 {
				p.next()
				if len(cur) > 0 {
					out = append(out, cur)
				}
				return out, nil
			}
			depth--
			cur = append(cur, p.next())
		case t.Is(",") && depth == 0:
			p.next()
			out = append(out, cur)
			cur = nil
		default:
			cur = append(cur, p.next())
		}
	}
}

// captureUntilEND collects raw tokens up to (and consuming) the matching
// END keyword. Type bodies do not nest types, so the first END closes.
func (p *parser) captureUntilEND() ([]Token, error) {
	var out []Token
	for {
		t := p.peek()
		if t.Kind == TokEOF {
			return nil, p.errf("missing END")
		}
		if t.Is("END") {
			p.next()
			return out, nil
		}
		out = append(out, p.next())
	}
}

// parseDotted parses IDENT {"." IDENT} into a dotted name.
func (p *parser) parseDotted() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	for p.peek().Is(".") && p.peek2().Kind == TokIdent {
		p.next()
		part, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		name += "." + part
	}
	return name, nil
}

// splitRef splits a dotted name into (element, class) at the last dot.
func splitRef(full string) (element, class string) {
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == '.' {
			return full[:i], full[i+1:]
		}
	}
	return "", full
}

// parseClassRef parses a dotted class reference. Within an element body
// (owner non-empty), a single-component reference resolves to the owning
// element.
func (p *parser) parseClassRef(owner string) (core.ClassRef, error) {
	full, err := p.parseDotted()
	if err != nil {
		return core.ClassRef{}, err
	}
	elem, class := splitRef(full)
	if elem == "" && owner != "" {
		elem = owner
	}
	return core.Ref(elem, class), nil
}

// substituteTokens replaces identifier tokens per the substitution map —
// the paper's text-substitution semantics. Identifiers following a dot
// are member selectors and are never substituted.
func substituteTokens(body []Token, subst map[string][]Token) []Token {
	out := make([]Token, 0, len(body))
	for i, t := range body {
		if t.Kind == TokIdent {
			if i > 0 && body[i-1].Is(".") {
				out = append(out, t)
				continue
			}
			if rep, ok := subst[t.Text]; ok {
				out = append(out, rep...)
				continue
			}
		}
		out = append(out, t)
	}
	return out
}
