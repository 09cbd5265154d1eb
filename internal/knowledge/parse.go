package knowledge

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Parse builds a Formula from a compact ASCII syntax, for the query
// tool (cmd/ebaq) and interactive exploration. Grammar, loosest
// binding first:
//
//	formula  := iff
//	iff      := implies ('<->' implies)*
//	implies  := or ('->' or)*          (right-associative)
//	or       := and ('|' and)*
//	and      := unary ('&' unary)*
//	unary    := '!' unary | modal | '(' formula ')' | atom
//	modal    := 'K' idx unary          knowledge, e.g. K0 E0
//	          | 'B' idx unary          belief B^N_i
//	          | 'E' unary              everyone in N believes
//	          | 'C' unary              common knowledge among N
//	          | 'Cbox' unary           continual common knowledge C□_N
//	          | 'Cdia' unary           eventual common knowledge C◇_N
//	          | 'box' unary            □̂ (all times)
//	          | 'dia' unary            ◇̂ (some time)
//	          | 'alw' unary            □ (now and later)
//	          | 'ev' unary             ◇ (now or later)
//	atom     := 'E0' | 'E1'            ∃0, ∃1
//	          | 'init' idx '=' val     processor idx started with val
//	          | 'nf' idx               processor idx is nonfaulty
//	          | 'knows' idx '=' val    idx's view records val
//	          | 'true' | 'false'
//
// All group operators are indexed by the nonrigid set 𝒩 of nonfaulty
// processors. Whitespace separates tokens where needed.
func Parse(input string) (Formula, error) {
	p := &parser{toks: lex(input)}
	f, err := p.parseIff()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("knowledge: unexpected %q after formula", p.peek())
	}
	return f, nil
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) parseIff() (Formula, error) {
	left, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	for p.peek() == "<->" {
		p.next()
		right, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		left = Iff(left, right)
	}
	return left, nil
}

func (p *parser) parseImplies() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek() == "->" {
		p.next()
		right, err := p.parseImplies() // right-associative
		if err != nil {
			return nil, err
		}
		return Implies(left, right), nil
	}
	return left, nil
}

func (p *parser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (Formula, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return nil, fmt.Errorf("knowledge: unexpected end of formula")
	case tok == "!":
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(f), nil
	case tok == "(":
		p.next()
		f, err := p.parseIff()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("knowledge: missing closing parenthesis")
		}
		return f, nil
	}
	// Modal operators over 𝒩.
	nf := Nonfaulty()
	wrap := map[string]func(Formula) Formula{
		"E":    func(f Formula) Formula { return E(nf, f) },
		"C":    func(f Formula) Formula { return C(nf, f) },
		"Cbox": func(f Formula) Formula { return CBox(nf, f) },
		"Cdia": func(f Formula) Formula { return CDiamond(nf, f) },
		"box":  Box,
		"dia":  Diamond,
		"alw":  Henceforth,
		"ev":   Future,
	}
	if mk, ok := wrap[tok]; ok {
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return mk(f), nil
	}
	if len(tok) >= 2 && (tok[0] == 'K' || tok[0] == 'B') && isDigits(tok[1:]) {
		p.next()
		idx, err := atoi(tok, tok[1:])
		if err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if tok[0] == 'K' {
			return K(types.ProcID(idx), f), nil
		}
		return B(types.ProcID(idx), nf, f), nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Formula, error) {
	tok := p.next()
	switch {
	case tok == "E0":
		return Exists0(), nil
	case tok == "E1":
		return Exists1(), nil
	case tok == "true":
		return True(), nil
	case tok == "false":
		return False(), nil
	case strings.HasPrefix(tok, "nf") && isDigits(tok[2:]):
		idx, err := atoi(tok, tok[2:])
		if err != nil {
			return nil, err
		}
		return IsNonfaulty(types.ProcID(idx)), nil
	case strings.HasPrefix(tok, "init"):
		idx, val, err := splitEq(tok, tok[4:])
		if err != nil {
			return nil, fmt.Errorf("%w (want initI=V)", err)
		}
		return InitialIs(types.ProcID(idx), val), nil
	case strings.HasPrefix(tok, "knows"):
		idx, val, err := splitEq(tok, tok[5:])
		if err != nil {
			return nil, fmt.Errorf("%w (want knowsI=V)", err)
		}
		return ViewAtom(tok, types.ProcID(idx), func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, val)
		}), nil
	default:
		return nil, fmt.Errorf("knowledge: unknown token %q", tok)
	}
}

// splitEq parses the "I=V" tail s of the atom tok: a processor index
// and a binary value.
func splitEq(tok, s string) (int, types.Value, error) {
	idx, val, ok := strings.Cut(s, "=")
	if !ok || !isDigits(idx) || !isDigits(val) {
		return 0, types.Unset, fmt.Errorf("knowledge: bad atom %q", tok)
	}
	v, err := strconv.Atoi(val)
	if err != nil || v > 1 {
		return 0, types.Unset, fmt.Errorf("knowledge: bad value in atom %q", tok)
	}
	i, err := atoi(tok, idx)
	return i, types.Value(v), err
}

// isDigits reports whether s is a nonempty string of ASCII digits.
func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// atoi parses the processor index s of the token tok; an index that
// does not fit an int is an error, not a wrapped or clamped number.
func atoi(tok, s string) (int, error) {
	idx, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("knowledge: processor index out of range in %q", tok)
	}
	return idx, nil
}

// lex splits the input into tokens: parens, connectives, and words.
func lex(input string) []string {
	var toks []string
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == '!' || c == '&' || c == '|':
			toks = append(toks, string(c))
			i++
		case strings.HasPrefix(input[i:], "<->"):
			toks = append(toks, "<->")
			i += 3
		case strings.HasPrefix(input[i:], "->"):
			toks = append(toks, "->")
			i += 2
		default:
			j := i
			for j < len(input) && !strings.ContainsRune(" \t\n()!&|", rune(input[j])) &&
				!strings.HasPrefix(input[j:], "->") && !strings.HasPrefix(input[j:], "<->") {
				j++
			}
			toks = append(toks, input[i:j])
			i = j
		}
	}
	return toks
}
