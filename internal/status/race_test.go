//go:build race

package status

func init() { raceDetector = true }
