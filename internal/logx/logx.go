// Package logx holds the two things the serving tier's logging needs
// beyond log/slog: the level names skysr-serve's -log-level flag accepts,
// an "off" level among them, and a logger that drops everything for
// benchmarks and tests.
package logx

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
)

// LevelOff is above every level the program logs at: a handler whose
// threshold it is writes nothing.
const LevelOff = slog.LevelError + 4

// ParseLevel parses a level name: debug, info, warn (or warning), error,
// or off (or none).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		return LevelOff, nil
	}
	return slog.LevelInfo, fmt.Errorf("logx: unknown level %q (use debug, info, warn, error or off)", s)
}

// Discard returns a logger that drops everything. Its handler is
// disabled at every level and returns itself from WithAttrs and
// WithGroup, so binding request fields to it formats nothing: a
// TextHandler on io.Discard at LevelOff would still render every bound
// field. (slog.DiscardHandler, from Go 1.24, is the same handler.)
func Discard() *slog.Logger { return discard }

var discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
