package aliasing

import "megamimo/internal/cmplxs"

// suppressedOverlap documents a deliberate overlap; the directive silences
// the analyzer on that line.
func suppressedOverlap(x, b []complex128) {
	cmplxs.Add(x[1:], x, b) //lint:ignore aliasing deliberate smear for the golden suppression case
}
