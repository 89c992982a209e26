package cmplxs

import (
	"encoding/json"
	"fmt"
)

// Interleaved is a complex slice that encodes to JSON as interleaved
// float64 pairs, [re0, im0, re1, im1, ...]. JSON has no complex type and
// float64 round-trips exactly through encoding/json, so this is lossless;
// the checkpoint format stores every complex buffer this way.
type Interleaved []complex128

// MarshalJSON flattens to interleaved float64 pairs.
func (c Interleaved) MarshalJSON() ([]byte, error) {
	flat := make([]float64, 0, 2*len(c))
	for _, z := range c {
		flat = append(flat, real(z), imag(z))
	}
	return json.Marshal(flat)
}

// UnmarshalJSON rebuilds the complex slice from interleaved pairs.
func (c *Interleaved) UnmarshalJSON(b []byte) error {
	var flat []float64
	if err := json.Unmarshal(b, &flat); err != nil {
		return err
	}
	if len(flat)%2 != 0 {
		return fmt.Errorf("cmplxs: complex slice has %d scalars (odd)", len(flat))
	}
	out := make(Interleaved, len(flat)/2)
	for i := range out {
		out[i] = complex(flat[2*i], flat[2*i+1])
	}
	*c = out
	return nil
}
