//go:build race

package fusion

func init() { raceEnabled = true }
