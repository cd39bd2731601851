package metrics

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseText feeds mutated expositions to ParseText. No input may
// panic, and an accepted one must mean what it parsed to: rendering its
// samples back as `key value` lines must parse to the same map, NaN
// samples included. The committed seed under testdata/fuzz/FuzzParseText
// is a Registry.WriteText scrape with labels, escaped label values and a
// histogram exemplar; the seeds added here cover the value spellings.
func FuzzParseText(f *testing.F) {
	f.Add([]byte("# HELP up Up.\n# TYPE up gauge\nup 1\nup_inf +Inf\nup_ninf{a=\"b\"} -Inf\nup_nan NaN 1700000000\n"))
	f.Add([]byte(`m_bucket{le="1"} 2 # {k="v"} 0.7 1.5` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseText(data)
		if err != nil {
			return
		}
		var b strings.Builder
		for key, v := range samples {
			b.WriteString(key + " " + formatValue(v) + "\n")
		}
		again, err := ParseText([]byte(b.String()))
		if err != nil {
			t.Fatalf("rendered samples do not parse: %v\n%s", err, b.String())
		}
		if len(again) != len(samples) {
			t.Fatalf("%d samples parse back as %d\n%s", len(samples), len(again), b.String())
		}
		for key, v := range samples {
			w, ok := again[key]
			if !ok || w != v && !(math.IsNaN(w) && math.IsNaN(v)) {
				t.Fatalf("sample %s = %v parses back as %v (present %v)", key, v, w, ok)
			}
		}
	})
}

// formatValue renders a sample value in the exposition's spelling.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
