package main

import (
	"testing"

	"quma/internal/replay"
)

func TestValidateFlags(t *testing.T) {
	good := []struct {
		backend, mode             string
		shots, shotWorkers, lanes int
		want                      replay.Mode
	}{
		{"density", "auto", 1, 0, 0, replay.ModeAuto},
		{"trajectory", "compiled", 10000, 0, 8, replay.ModeAuto}, // legacy spelling
		{"trajectory", "interp", 2, 1, 0, replay.ModeAuto},       // legacy spelling
		{"density", "off", 5, 8, 1, replay.ModeOff},
		{"density", "", 1, 0, 0, replay.ModeAuto},
	}
	for _, c := range good {
		mode, err := validateFlags(c.backend, c.mode, c.shots, c.shotWorkers, c.lanes)
		if err != nil || mode != c.want {
			t.Errorf("validateFlags(%q, %q, %d, %d, %d) = (%q, %v), want (%q, nil)", c.backend, c.mode, c.shots, c.shotWorkers, c.lanes, mode, err, c.want)
		}
	}
	bad := []struct {
		backend, mode             string
		shots, shotWorkers, lanes int
	}{
		{"densty", "auto", 1, 0, 0},     // typo'd backend must not default
		{"", "auto", 1, 0, 0},           // empty backend is not a selection
		{"density", "repaly", 10, 0, 0}, // typo'd mode must not default
		{"density", "auto", 0, 0, 0},    // zero shots runs nothing
		{"density", "auto", -3, 0, 0},
		{"density", "auto", 10, -1, 0}, // negative shot-workers must not default
		{"density", "auto", 10, 0, -2}, // negative lanes must not default
	}
	for _, c := range bad {
		if _, err := validateFlags(c.backend, c.mode, c.shots, c.shotWorkers, c.lanes); err == nil {
			t.Errorf("validateFlags(%q, %q, %d, %d, %d) accepted invalid flags", c.backend, c.mode, c.shots, c.shotWorkers, c.lanes)
		}
	}
}
