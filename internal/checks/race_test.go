//go:build race

package checks

func init() { raceDetector = true }
