//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers off Linux; see pace_linux.go.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) sleep(ns int64) { time.Sleep(time.Duration(ns)) }

func (p *pacer) close() {}
