//go:build !unix

package main

import "time"

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
