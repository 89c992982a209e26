// Package geom models the paper's testbed geometry (Fig. 5): a
// conference-room-like space with access points on perimeter ledges near
// the ceiling and clients scattered across the floor, plus the
// log-distance path-loss model that turns positions into link budgets.
package geom

import (
	"math"

	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// Point is a 3-D position in meters.
type Point struct{ X, Y, Z units.Meters }

// Distance returns the Euclidean distance between two points.
func (p Point) Distance(q Point) units.Meters {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	//lint:ignore units the squared-distance intermediate has no dedicated dimension type
	return units.Meters(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
}

// PathLoss is a log-distance model with lognormal shadowing.
type PathLoss struct {
	// RefLossDB is the loss at the 1 m reference distance (≈40 dB at
	// 2.4 GHz free space).
	RefLossDB units.Decibels
	// Exponent is the path-loss exponent (2 free space, ~2.8 indoor mixed
	// LOS/NLOS).
	Exponent float64
	// ShadowSigmaDB is the lognormal shadowing standard deviation.
	ShadowSigmaDB units.Decibels
}

// DefaultIndoor matches a dense indoor deployment at 2.4 GHz.
var DefaultIndoor = PathLoss{RefLossDB: 40.0, Exponent: 2.8, ShadowSigmaDB: 4.0}

// LossDB returns the path loss over distance d (meters); shadow is the
// per-link shadowing draw in dB (0 for the median link).
func (p PathLoss) LossDB(d units.Meters, shadowDB units.Decibels) units.Decibels {
	if d < 0.1 {
		d = 0.1
	}
	return p.RefLossDB + units.Decibels(10*p.Exponent*math.Log10(units.Ratio(d, 1))) + shadowDB
}

// Room is a rectangular deployment area.
type Room struct {
	Width, Length, Height units.Meters
	// LedgeHeight is the AP mounting height (paper: ledges near ceiling).
	LedgeHeight units.Meters
	// ClientHeight is the client/table height.
	ClientHeight units.Meters
}

// ConferenceRoom is a Fig.-5-scale space.
var ConferenceRoom = Room{Width: 18, Length: 12, Height: 3.2, LedgeHeight: 2.8, ClientHeight: 0.9}

// APLocations returns n candidate AP positions spread along the room
// perimeter at ledge height, mimicking the blue squares of Fig. 5.
func (r Room) APLocations(n int) []Point {
	if n <= 0 {
		return nil
	}
	out := make([]Point, n)
	perim := 2 * (r.Width + r.Length)
	for i := range out {
		s := units.Div(units.Scale(perim, float64(i)+0.5), float64(n))
		out[i] = r.perimeterPoint(s)
	}
	return out
}

func (r Room) perimeterPoint(s units.Meters) Point {
	switch {
	case s < r.Width:
		return Point{s, 0, r.LedgeHeight}
	case s < r.Width+r.Length:
		return Point{r.Width, s - r.Width, r.LedgeHeight}
	case s < 2*r.Width+r.Length:
		return Point{r.Width - (s - r.Width - r.Length), r.Length, r.LedgeHeight}
	default:
		return Point{0, s - 2*r.Width - r.Length, r.LedgeHeight}
	}
}

// RandomClientLocation draws a client position uniformly over the floor,
// keeping a margin from the walls.
func (r Room) RandomClientLocation(src *rng.Source) Point {
	const margin = 1.0
	return Point{
		//lint:ignore units rng draws are dimensionless; the bounds re-enter as meters
		X: units.Meters(src.Uniform(margin, float64(r.Width)-margin)),
		//lint:ignore units rng draws are dimensionless; the bounds re-enter as meters
		Y: units.Meters(src.Uniform(margin, float64(r.Length)-margin)),
		Z: r.ClientHeight,
	}
}

// Topology is one sampled placement: AP and client positions plus the
// per-link shadowing draws.
type Topology struct {
	APs      []Point
	Clients  []Point
	ShadowDB [][]units.Decibels // [client][ap]
}

// SampleTopology places nAPs APs (random subset of perimeter candidates)
// and nClients clients and draws shadowing.
func SampleTopology(src *rng.Source, room Room, pl PathLoss, nAPs, nClients int) *Topology {
	cands := room.APLocations(max(nAPs*2, 8))
	perm := src.Perm(len(cands))
	t := &Topology{}
	for i := 0; i < nAPs; i++ {
		t.APs = append(t.APs, cands[perm[i]])
	}
	for c := 0; c < nClients; c++ {
		t.Clients = append(t.Clients, room.RandomClientLocation(src))
	}
	t.ShadowDB = make([][]units.Decibels, nClients)
	for c := range t.ShadowDB {
		t.ShadowDB[c] = make([]units.Decibels, nAPs)
		for a := range t.ShadowDB[c] {
			t.ShadowDB[c][a] = units.Scale(pl.ShadowSigmaDB, src.Norm())
		}
	}
	return t
}

// LinkGainDB returns the client←AP channel gain in dB (negative).
func (t *Topology) LinkGainDB(pl PathLoss, client, ap int) units.Decibels {
	d := t.Clients[client].Distance(t.APs[ap])
	return -pl.LossDB(d, t.ShadowDB[client][ap])
}

// SNRdB returns the link SNR given transmit power and noise floor in dBm.
func (t *Topology) SNRdB(pl PathLoss, client, ap int, txPowerDBm, noiseFloorDBm units.Decibels) units.Decibels {
	return txPowerDBm + t.LinkGainDB(pl, client, ap) - noiseFloorDBm
}

// Map renders the topology as an ASCII floor plan (A = AP, c = client),
// the quick sanity check for experiment placements.
func (t *Topology) Map(room Room, cols, rows int) string {
	if cols < 8 {
		cols = 8
	}
	if rows < 4 {
		rows = 4
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, cols)
		for c := range grid[r] {
			grid[r][c] = '.'
		}
	}
	place := func(p Point, ch byte) {
		c := int(units.Ratio(p.X, room.Width) * float64(cols-1))
		r := int(units.Ratio(p.Y, room.Length) * float64(rows-1))
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		grid[r][c] = ch
	}
	for _, p := range t.APs {
		place(p, 'A')
	}
	for _, p := range t.Clients {
		place(p, 'c')
	}
	out := make([]byte, 0, rows*(cols+1))
	for r := range grid {
		out = append(out, grid[r]...)
		out = append(out, '\n')
	}
	return string(out)
}
