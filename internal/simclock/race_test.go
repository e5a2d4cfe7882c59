//go:build race

package simclock

func init() { raceDetector = true }
