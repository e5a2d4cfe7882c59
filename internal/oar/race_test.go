//go:build race

package oar

func init() { raceDetector = true }
