package air

import (
	"fmt"

	"megamimo/internal/cmplxs"
	"megamimo/internal/radio"
	"megamimo/internal/rng"
)

// EmissionState is one in-flight emission in serializable form. The
// oscillator is referenced by transmit antenna ID and resolved on restore:
// oscillators are owned by the network's nodes and checkpointed there.
type EmissionState struct {
	Tx      int                `json:"tx"`
	Start   int64              `json:"start"`
	Samples cmplxs.Interleaved `json:"samples"`
}

// State is the mutable state of the medium: the noise stream position and
// the emissions still audible. Links are static channel realizations
// rebuilt from the seed. The json tags are the checkpoint format's wire
// names.
type State struct {
	Noise     rng.State       `json:"noise"`
	Emissions []EmissionState `json:"emissions,omitempty"`
}

// Snapshot captures the medium's mutable state. Emission samples are
// copied, so the caller may keep using the medium.
func (a *Air) Snapshot() State {
	st := State{
		Noise:     a.noise.State(),
		Emissions: make([]EmissionState, len(a.emissions)),
	}
	for i, e := range a.emissions {
		st.Emissions[i] = EmissionState{
			Tx:      e.tx,
			Start:   e.start,
			Samples: append([]complex128(nil), e.samples...),
		}
	}
	return st
}

// RestoreSnapshot overwrites the medium's mutable state. oscFor maps a
// transmit antenna ID back to its owning oscillator (the network knows the
// antenna plan; the medium does not).
func (a *Air) RestoreSnapshot(st State, oscFor func(tx int) *radio.Oscillator) error {
	if err := a.noise.Restore(st.Noise); err != nil {
		return fmt.Errorf("air: noise rng: %w", err)
	}
	a.Reset()
	for i, e := range st.Emissions {
		osc := oscFor(e.Tx)
		if osc == nil {
			return fmt.Errorf("air: emission %d: no oscillator for transmit antenna %d", i, e.Tx)
		}
		if len(e.Samples) == 0 {
			return fmt.Errorf("air: emission %d: empty sample buffer", i)
		}
		a.Transmit(e.Tx, osc, e.Start, e.Samples)
	}
	return nil
}
