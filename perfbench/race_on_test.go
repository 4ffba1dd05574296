//go:build race

package main

// raceEnabled: the race detector slows the live tier below the fixed
// schedule, so the live smoke runs cannot pass under it.
const raceEnabled = true
