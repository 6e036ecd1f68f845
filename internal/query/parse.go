package query

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// ParseAnnotation parses a full HailQuery annotation of the form
//
//	@HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})
//
// against the given schema. Both clauses are optional: a missing filter
// means full scan, a missing projection means all attributes.
func ParseAnnotation(s *schema.Schema, ann string) (*Query, error) {
	text := strings.TrimSpace(ann)
	text = strings.TrimPrefix(text, "@HailQuery")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "(") || !strings.HasSuffix(text, ")") {
		return nil, fmt.Errorf("query: annotation must be @HailQuery(...): %q", ann)
	}
	text = text[1 : len(text)-1]

	q := &Query{}
	for _, clause := range splitTopLevel(text, ',') {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("query: malformed clause %q", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "filter":
			unq, err := unquote(val)
			if err != nil {
				return nil, err
			}
			preds, err := ParseFilter(s, unq)
			if err != nil {
				return nil, err
			}
			q.Filter = preds
		case "projection":
			proj, err := parseProjection(val)
			if err != nil {
				return nil, err
			}
			q.Projection = proj
		default:
			return nil, fmt.Errorf("query: unknown annotation key %q", key)
		}
	}
	if err := q.Validate(s); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseFilter parses a conjunction of predicates in the annotation filter
// syntax, e.g.
//
//	@2 = 172.101.11.46 and @3 between(1992-12-22,1992-12-22)
//	@8 >= 1 and @8 <= 10
//
// A blank filter has no predicates: the full scan an annotation without
// one asks for, and what Query.String writes for it.
func ParseFilter(s *schema.Schema, filter string) ([]Predicate, error) {
	if strings.TrimSpace(filter) == "" {
		return nil, nil
	}
	var preds []Predicate
	for _, part := range splitAnd(filter) {
		p, err := parsePredicate(s, part)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	// Merge >=/<= pairs on the same attribute into one range predicate so
	// the index sees a single bounded range (e.g. Bob-Q4's adRevenue>=1
	// AND adRevenue<=10).
	return mergeConjuncts(preds), nil
}

func parsePredicate(s *schema.Schema, text string) (Predicate, error) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "@") {
		return Predicate{}, fmt.Errorf("query: predicate must start with @attr: %q", text)
	}
	i := 1
	for i < len(text) && text[i] >= '0' && text[i] <= '9' {
		i++
	}
	if i == 1 {
		return Predicate{}, fmt.Errorf("query: missing attribute number in %q", text)
	}
	var attr int
	fmt.Sscanf(text[1:i], "%d", &attr)
	if attr < 1 || attr > s.NumFields() {
		return Predicate{}, fmt.Errorf("query: attribute @%d out of range (schema has %d)", attr, s.NumFields())
	}
	col := attr - 1
	t := s.Field(col).Type
	rest := strings.TrimSpace(text[i:])

	parseV := func(lit string) (schema.Value, error) {
		lit = strings.TrimSpace(lit)
		if len(splitAnd(" "+lit)) > 1 { // "and @2": String would split it off
			return schema.Value{}, fmt.Errorf("query: value %q starts like a conjunct", lit)
		}
		return schema.ParseValue(t, lit)
	}

	switch {
	case strings.HasPrefix(rest, "between(") && strings.HasSuffix(rest, ")"):
		inner := rest[len("between(") : len(rest)-1]
		lo, hi, ok := strings.Cut(inner, ",")
		if !ok {
			return Predicate{}, fmt.Errorf("query: between needs two bounds: %q", text)
		}
		loV, err := parseV(lo)
		if err != nil {
			return Predicate{}, err
		}
		hiV, err := parseV(hi)
		if err != nil {
			return Predicate{}, err
		}
		return Between(col, loV, hiV), nil
	case strings.HasPrefix(rest, ">="):
		v, err := parseV(rest[2:])
		if err != nil {
			return Predicate{}, err
		}
		return AtLeast(col, v), nil
	case strings.HasPrefix(rest, "<="):
		v, err := parseV(rest[2:])
		if err != nil {
			return Predicate{}, err
		}
		return AtMost(col, v), nil
	case strings.HasPrefix(rest, "="):
		v, err := parseV(rest[1:])
		if err != nil {
			return Predicate{}, err
		}
		return Eq(col, v), nil
	default:
		return Predicate{}, fmt.Errorf("query: unsupported operator in %q", text)
	}
}

// mergeConjuncts combines predicates on the same attribute by intersecting
// their bounds.
func mergeConjuncts(preds []Predicate) []Predicate {
	var out []Predicate
	for _, p := range preds {
		merged := false
		for i := range out {
			if out[i].Column != p.Column {
				continue
			}
			if p.Lo != nil && (out[i].Lo == nil || p.Lo.Compare(*out[i].Lo) > 0) {
				out[i].Lo = p.Lo
			}
			if p.Hi != nil && (out[i].Hi == nil || p.Hi.Compare(*out[i].Hi) < 0) {
				out[i].Hi = p.Hi
			}
			merged = true
			break
		}
		if !merged {
			out = append(out, p)
		}
	}
	return out
}

func parseProjection(val string) ([]int, error) {
	val = strings.TrimSpace(val)
	if !strings.HasPrefix(val, "{") || !strings.HasSuffix(val, "}") {
		return nil, fmt.Errorf("query: projection must be {@i,...}: %q", val)
	}
	inner := strings.TrimSpace(val[1 : len(val)-1])
	if inner == "" {
		return nil, nil
	}
	var out []int
	for _, ref := range strings.Split(inner, ",") {
		ref = strings.TrimSpace(ref)
		if !strings.HasPrefix(ref, "@") {
			return nil, fmt.Errorf("query: projection entry %q must be @i", ref)
		}
		var attr int
		if _, err := fmt.Sscanf(ref[1:], "%d", &attr); err != nil || attr < 1 {
			return nil, fmt.Errorf("query: bad projection entry %q", ref)
		}
		out = append(out, attr-1)
	}
	return out, nil
}

// splitAnd splits on the keyword "and" where the next conjunct's @attr
// follows it, so a value may hold the word "and" itself: a conjunct starts
// with '@', a value never holds " and @".
func splitAnd(s string) []string {
	var parts []string
	lower := strings.ToLower(s)
	start := 0
	for i := 0; i+5 <= len(s); i++ {
		if lower[i:i+5] == " and " && strings.HasPrefix(strings.TrimLeft(s[i+5:], " "), "@") {
			parts = append(parts, s[start:i])
			start = i + 5
			i += 4
		}
	}
	return append(parts, s[start:])
}

// splitTopLevel splits on sep outside quotes, parens and braces.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case inQuote:
		case c == '(' || c == '{':
			depth++
		case c == ')' || c == '}':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// unquote strips the quotes of the filter clause. The syntax has no
// escapes, so a quote inside is malformed.
func unquote(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' || strings.Contains(s[1:len(s)-1], `"`) {
		return "", fmt.Errorf("query: expected quoted string, got %q", s)
	}
	return s[1 : len(s)-1], nil
}
