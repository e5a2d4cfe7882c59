//go:build race

package intel

func init() { raceDetector = true }
