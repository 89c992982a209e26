//go:build !amd64

package buildconstraint

func kernel() int { return 2 }
