package main

import "testing"

func TestCheckHosts(t *testing.T) {
	const hosts = 100
	for _, tc := range []struct {
		a, b int
		ok   bool
	}{
		{-1, -1, true}, {0, 1, true}, {0, 0, true}, {hosts - 1, 0, true},
		{0, -1, false}, {-1, 5, false}, {-2, -2, false},
		{0, hosts, false}, {hosts, 0, false}, {0, 999999999, false},
	} {
		if err := checkHosts(tc.a, tc.b, hosts); (err == nil) != tc.ok {
			t.Errorf("checkHosts(%d, %d, %d) = %v, want ok %v", tc.a, tc.b, hosts, err, tc.ok)
		}
	}
}
