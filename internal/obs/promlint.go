package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// LintPrometheus is a strict validator for the Prometheus text
// exposition format (version 0.0.4). It returns one error per defect:
//
//   - samples whose family has no # HELP or # TYPE header;
//   - # TYPE values outside counter|gauge|histogram|summary|untyped;
//   - headers appearing after the family's first sample, duplicate
//     headers, or a family's samples split into non-contiguous groups
//     (the classic two-registries-write-one-family bug);
//   - malformed metric names, label names, label escaping, or values;
//   - lines that are not valid UTF-8;
//   - exact duplicate series (same name and label set).
//
// A nil or empty result means the exposition is clean.
func LintPrometheus(r io.Reader) []error {
	l := &linter{
		families: make(map[string]*lintFamily),
		series:   make(map[string]int),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	n := 0
	for sc.Scan() {
		n++
		l.line(n, sc.Text())
	}
	if err := sc.Err(); err != nil {
		l.errs = append(l.errs, fmt.Errorf("promlint: read: %w", err))
	}
	return l.errs
}

// LintPrometheusString is LintPrometheus over an in-memory exposition.
func LintPrometheusString(s string) []error {
	return LintPrometheus(strings.NewReader(s))
}

type lintFamily struct {
	help    bool
	typ     string
	samples int  // samples seen so far
	closed  bool // a different family's sample has appeared since ours
}

type linter struct {
	errs     []error
	families map[string]*lintFamily
	series   map[string]int // canonical series key -> first line
	current  string         // family of the most recent sample
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (l *linter) errf(line int, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("promlint: line %d: "+format, append([]any{line}, args...)...))
}

func (l *linter) fam(name string) *lintFamily {
	f := l.families[name]
	if f == nil {
		f = &lintFamily{}
		l.families[name] = f
	}
	return f
}

func (l *linter) line(n int, raw string) {
	if !utf8.ValidString(raw) {
		l.errf(n, "line is not valid UTF-8")
	}
	line := strings.TrimRight(raw, " \t")
	if line == "" {
		return
	}
	if strings.HasPrefix(line, "#") {
		l.comment(n, line)
		return
	}
	l.sample(n, line)
}

func (l *linter) comment(n int, line string) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return // bare "#" comment: legal, ignored
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			l.errf(n, "# HELP without a metric name")
			return
		}
		name := fields[2]
		if !metricNameRe.MatchString(name) {
			l.errf(n, "# HELP for malformed metric name %q", name)
			return
		}
		f := l.fam(name)
		if f.help {
			l.errf(n, "duplicate # HELP for %s", name)
		}
		if f.samples > 0 {
			l.errf(n, "# HELP for %s appears after its samples", name)
		}
		f.help = true
	case "TYPE":
		if len(fields) < 4 {
			l.errf(n, "# TYPE needs a metric name and a type")
			return
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !metricNameRe.MatchString(name) {
			l.errf(n, "# TYPE for malformed metric name %q", name)
			return
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			l.errf(n, "# TYPE %s has invalid type %q", name, typ)
		}
		f := l.fam(name)
		if f.typ != "" {
			l.errf(n, "duplicate # TYPE for %s", name)
		}
		if f.samples > 0 {
			l.errf(n, "# TYPE for %s appears after its samples", name)
		}
		f.typ = typ
	}
	// Other comments are free-form and legal.
}

// familyOf resolves a sample name to its declared family, unwrapping the
// histogram/summary suffixes when the base family is declared as such.
func (l *linter) familyOf(name string) (string, *lintFamily) {
	if f, ok := l.families[name]; ok && (f.help || f.typ != "") {
		return name, f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if f, ok2 := l.families[base]; ok2 && (f.typ == "histogram" || f.typ == "summary") {
			if suf == "_bucket" && f.typ == "summary" {
				continue // summaries have no _bucket series
			}
			return base, f
		}
	}
	return name, nil
}

func (l *linter) sample(n int, line string) {
	name, labels, rest, ok := splitSample(line)
	if !ok {
		l.errf(n, "unparsable sample %q", line)
		return
	}
	if !metricNameRe.MatchString(name) {
		l.errf(n, "malformed metric name %q", name)
		return
	}
	famName, f := l.familyOf(name)
	if f == nil {
		l.errf(n, "sample %s has no # HELP/# TYPE header", name)
		f = l.fam(famName) // count it anyway so the error fires once per family
	} else {
		if !f.help {
			l.errf(n, "family %s has # TYPE but no # HELP", famName)
			f.help = true // report once
		}
		if f.typ == "" {
			l.errf(n, "family %s has # HELP but no # TYPE", famName)
			f.typ = "untyped"
		}
	}
	if famName != l.current {
		if l.current != "" {
			l.fam(l.current).closed = true
		}
		if f.closed {
			l.errf(n, "family %s reappears after other families (non-contiguous group)", famName)
			f.closed = false // report once per split
		}
		l.current = famName
	}
	f.samples++

	canon, lerr := canonicalLabels(labels)
	if lerr != "" {
		l.errf(n, "sample %s: %s", name, lerr)
		return
	}
	key := name + canon
	if first, dup := l.series[key]; dup {
		l.errf(n, "duplicate series %s%s (first at line %d)", name, canon, first)
	} else {
		l.series[key] = n
	}

	val := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 { // optional timestamp
		val = rest[:i]
		ts := strings.TrimSpace(rest[i+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			l.errf(n, "sample %s: bad timestamp %q", name, ts)
		}
	}
	switch val {
	case "+Inf", "-Inf", "NaN", "Nan":
	default:
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			l.errf(n, "sample %s: bad value %q", name, val)
		}
	}
}

// splitSample separates "name{labels} value [ts]" respecting quoted
// label values. labels is the raw text inside the braces ("" when the
// sample has none).
func splitSample(line string) (name, labels, rest string, ok bool) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexAny(line, " \t")
	if brace >= 0 && (space < 0 || brace < space) {
		name = line[:brace]
		i := brace + 1
		inQuote := false
		for ; i < len(line); i++ {
			switch line[i] {
			case '\\':
				if inQuote {
					i++ // skip the escaped byte
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					labels = line[brace+1 : i]
					rest = strings.TrimSpace(line[i+1:])
					return name, labels, rest, rest != ""
				}
			}
		}
		return "", "", "", false // unterminated brace or quote
	}
	if space < 0 {
		return "", "", "", false
	}
	return line[:space], "", strings.TrimSpace(line[space:]), true
}

// canonicalLabels parses a label body and returns a canonical (sorted)
// rendering for duplicate detection, or a non-empty problem description.
func canonicalLabels(body string) (canon string, problem string) {
	if body == "" {
		return "", ""
	}
	type kv struct{ k, v string }
	var pairs []kv
	seen := make(map[string]bool)
	i := 0
	for i < len(body) {
		// label name
		j := i
		for j < len(body) && body[j] != '=' {
			j++
		}
		if j == len(body) {
			return "", fmt.Sprintf("label pair missing '=' in %q", body[i:])
		}
		lname := strings.TrimSpace(body[i:j])
		if !labelNameRe.MatchString(lname) {
			return "", fmt.Sprintf("malformed label name %q", lname)
		}
		if seen[lname] {
			return "", fmt.Sprintf("repeated label %q", lname)
		}
		seen[lname] = true
		// quoted value
		j++
		if j >= len(body) || body[j] != '"' {
			return "", fmt.Sprintf("label %s value is not quoted", lname)
		}
		j++
		var val strings.Builder
		closed := false
		for j < len(body) {
			c := body[j]
			if c == '\\' {
				if j+1 >= len(body) {
					return "", fmt.Sprintf("label %s has a trailing backslash", lname)
				}
				switch body[j+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Sprintf("label %s has invalid escape \\%c", lname, body[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				closed = true
				j++
				break
			}
			if c == '\n' {
				return "", fmt.Sprintf("label %s has an unescaped newline", lname)
			}
			val.WriteByte(c)
			j++
		}
		if !closed {
			return "", fmt.Sprintf("label %s value is unterminated", lname)
		}
		pairs = append(pairs, kv{lname, val.String()})
		if j < len(body) {
			if body[j] != ',' {
				return "", fmt.Sprintf("expected ',' after label %s, got %q", lname, body[j])
			}
			j++
		}
		i = j
	}
	keys := make([]string, len(pairs))
	vals := make(map[string]string, len(pairs))
	for i, p := range pairs {
		keys[i] = p.k
		vals[p.k] = p.v
	}
	// canonical order
	for a := 1; a < len(keys); a++ {
		for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
			keys[b], keys[b-1] = keys[b-1], keys[b]
		}
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, vals[k])
	}
	sb.WriteByte('}')
	return sb.String(), ""
}
