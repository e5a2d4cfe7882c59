//go:build race

package ci

func init() { raceDetector = true }
