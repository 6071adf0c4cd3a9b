//go:build race

package netsim

// raceEnabled reports whether the test binary runs under the race
// detector, which deliberately defeats sync.Pool reuse.
const raceEnabled = true
