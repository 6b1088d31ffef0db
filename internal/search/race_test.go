//go:build race

package search_test

func init() { raceEnabled = true }
