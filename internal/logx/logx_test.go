package logx

import (
	"context"
	"log/slog"
	"math"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, " error ": slog.LevelError, "off": LevelOff, "none": LevelOff,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted nonsense")
	}
}

// TestLevelFiltering runs a TextHandler at each parsed threshold: it must
// write the lines at or above it and none below, and "off" must silence
// even errors.
func TestLevelFiltering(t *testing.T) {
	for name, want := range map[string]string{
		"debug": "DEBUG INFO WARN ERROR",
		"info":  "INFO WARN ERROR",
		"warn":  "WARN ERROR",
		"error": "ERROR",
		"off":   "",
	} {
		level, err := ParseLevel(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: level}))
		l.Debug("d")
		l.Info("i")
		l.Warn("w")
		l.Error("e")
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if _, after, ok := strings.Cut(line, " level="); ok {
				lvl, _, _ := strings.Cut(after, " ")
				got = append(got, lvl)
			}
		}
		if strings.Join(got, " ") != want {
			t.Errorf("threshold %s wrote levels %q, want %q", name, got, want)
		}
	}
}

// TestDiscardIsSilent checks Discard's handler is disabled at every
// level and stays the same handler however many fields are bound.
func TestDiscardIsSilent(t *testing.T) {
	l := Discard()
	for _, level := range []slog.Level{math.MinInt, slog.LevelDebug, slog.LevelError, LevelOff, math.MaxInt} {
		if l.Enabled(context.Background(), level) {
			t.Errorf("Discard enabled at %v", level)
		}
	}
	l.Error("into the void", "k", "v") // must not panic
	bound := l.With("endpoint", "route").WithGroup("g").With("trace", "00000000deadbeef")
	if bound.Handler() != l.Handler() {
		t.Errorf("With/WithGroup on Discard made a new handler %#v", bound.Handler())
	}
}
