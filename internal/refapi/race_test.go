//go:build race

package refapi

func init() { raceDetector = true }
