package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins each numeric flag's lower bound: the value just below
// it is rejected with an error naming the flag, and the bound itself passes.
func TestCheckFlags(t *testing.T) {
	// nodes, iters, asp-n, asp-nodes, parallel
	ok := [5]int{1, 1, 1, 1, 0}
	cases := []struct {
		flag string
		idx  int
		bad  int
	}{
		{"-nodes", 0, 0},
		{"-iters", 1, -3},
		{"-iters", 1, 0},
		{"-asp-n", 2, -5},
		{"-asp-nodes", 3, 0},
		{"-parallel", 4, -1},
	}
	check := func(v [5]int) error { return checkFlags(v[0], v[1], v[2], v[3], v[4]) }
	if err := check(ok); err != nil {
		t.Fatalf("checkFlags rejected the lower bounds: %v", err)
	}
	for _, c := range cases {
		v := ok
		v[c.idx] = c.bad
		err := check(v)
		if err == nil {
			t.Errorf("checkFlags accepted %s %d", c.flag, c.bad)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s %d: error %q does not name the flag", c.flag, c.bad, err)
		}
	}
}
