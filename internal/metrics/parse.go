package metrics

// ParseText is the validating counterpart of Registry.WriteText: a small
// parser for the Prometheus text exposition format used by the test
// suites to assert that /metrics output is well-formed and that specific
// samples hold specific values — without depending on a Prometheus
// client library.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseText parses a text-format exposition and returns every sample as
// name{labels} → value (the label block exactly as rendered, "" when
// unlabeled). It validates comment lines (# HELP / # TYPE with a known
// type), metric and label name character sets, label quoting and escapes,
// and the value syntax, and rejects duplicate samples — returning an
// error naming the first offending line.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for n, line := range strings.Split(string(data), "\n") {
		lineNo := n + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		out[key] = val
	}
	return out, nil
}

func parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment, legal
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !nameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !nameRe.MatchString(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

// parseSample parses `name[{labels}] value [timestamp]`.
func parseSample(line string) (key string, val float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if !nameRe.MatchString(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	labels := ""
	if rest[0] == '{' {
		end, err := scanLabels(rest)
		if err != nil {
			return "", 0, err
		}
		labels, rest = rest[:end], rest[end:]
	}
	// An OpenMetrics-style exemplar may trail the value:
	// ` # {k="v"} value [timestamp]`. Validate and strip it — the sample
	// key/value are unaffected (Registry.WriteText emits these on
	// histogram buckets tagged via Histogram.Exemplar).
	if j := strings.Index(rest, " # "); j >= 0 {
		if err := validateExemplar(rest[j+3:]); err != nil {
			return "", 0, err
		}
		rest = rest[:j]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("malformed sample %q", line)
	}
	val, err = parseValue(fields[0])
	if err != nil {
		return "", 0, err
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", 0, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return name + labels, val, nil
}

// validateExemplar checks the `{k="v",...} value [timestamp]` tail of an
// exemplar suffix.
func validateExemplar(s string) error {
	if s == "" || s[0] != '{' {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	end, err := scanLabels(s)
	if err != nil {
		return err
	}
	fields := strings.Fields(s[end:])
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	if _, err := parseValue(fields[0]); err != nil {
		return err
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("invalid exemplar timestamp %q", fields[1])
		}
	}
	return nil
}

// scanLabels validates a `{k="v",...}` block starting at s[0] == '{' and
// returns the index one past its closing brace.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		if i < len(s) && s[i] == '}' {
			return i + 1, nil // {} and trailing-comma forms
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) || !labelRe.MatchString(s[start:i]) {
			return 0, fmt.Errorf("invalid label name in %q", s)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				if i+1 >= len(s) || !strings.ContainsRune(`\"n`, rune(s[i+1])) {
					return 0, fmt.Errorf("invalid escape in label value in %q", s)
				}
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing '"'
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("malformed label block in %q", s)
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}
