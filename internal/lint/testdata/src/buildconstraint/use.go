package buildconstraint

// Use calls whichever kernel this architecture builds.
func Use() int { return kernel() }
