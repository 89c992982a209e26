package buildconstraint

func kernel() int { return 1 }
