// Package branch implements the paper's front-end prediction structures
// (Table 4): a tournament direction predictor (local + gshare global + a
// choice table) and a 16-entry return address stack. Direct targets come
// from decode, so no branch target buffer is modeled.
//
// The predictor updates global history speculatively at prediction time and
// exposes per-branch checkpoints so the CPU can restore history and RAS
// state when a mispredicted branch squashes the wrong path.
package branch

import (
	"repro/internal/arch"
)

// The paper's Table 4 sizes.
const (
	localEntries  = 2048 // local history table
	localHistBits = 11   // local counter table: 1<<localHistBits entries
	globalEntries = 4096 // gshare counter table (power of two)
	choiceEntries = 4096 // choice table (power of two)
	rasEntries    = 16

	localMask = 1<<localHistBits - 1
)

// PredState captures everything about one prediction that the update path
// and the squash-recovery path need: the indices used (computed from the
// history *at prediction time*) and the components' votes.
type PredState struct {
	PC         arch.Addr
	GHRBefore  uint64
	LocalIdx   int
	LocalHist  uint64
	GlobalIdx  int
	ChoiceIdx  int
	LocalPred  bool
	GlobalPred bool
	UseGlobal  bool
	Taken      bool
}

// Snapshot checkpoints the speculative front-end state (global history and
// RAS) before a control instruction, for restoration on squash.
type Snapshot struct {
	GHR    uint64
	RASsp  int
	RAStop arch.Addr
}

// Predictor is the tournament predictor + RAS.
type Predictor struct {
	localHist [localEntries]uint64      // per-PC history registers
	localCtr  [1 << localHistBits]uint8 // 2-bit counters indexed by local history
	globalCtr [globalEntries]uint8      // 2-bit counters indexed by GHR ^ PC
	choiceCtr [choiceEntries]uint8      // 2-bit counters: >=2 means trust global
	ghr       uint64
	ras       [rasEntries]arch.Addr
	rasSP     int
}

// New builds a predictor.
func New() *Predictor {
	p := &Predictor{}
	// Direction counters start weakly not-taken (gem5's saturating
	// counters likewise start at zero); the choice table starts weakly
	// toward the *local* component so a well-trained per-PC direction
	// wins until the global component proves itself in that history
	// context.
	for i := range p.localCtr {
		p.localCtr[i] = 1
	}
	for i := range p.globalCtr {
		p.globalCtr[i] = 1
	}
	for i := range p.choiceCtr {
		p.choiceCtr[i] = 1
	}
	return p
}

func taken(ctr uint8) bool { return ctr >= 2 }

func bump(ctr *uint8, t bool) {
	if t {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

// Checkpoint captures the speculative front-end state.
func (p *Predictor) Checkpoint() Snapshot {
	return Snapshot{GHR: p.ghr, RASsp: p.rasSP, RAStop: p.ras[p.rasSP]}
}

// Restore rewinds the speculative front-end state to a checkpoint taken at
// the mispredicted instruction, then the caller feeds the actual outcome
// back via ShiftGHR.
func (p *Predictor) Restore(s Snapshot) {
	p.ghr = s.GHR
	p.rasSP = s.RASsp
	p.ras[p.rasSP] = s.RAStop
}

// ShiftGHR appends an actual branch outcome to the global history (used
// after Restore so the history reflects the resolved branch).
func (p *Predictor) ShiftGHR(t bool) {
	p.ghr <<= 1
	if t {
		p.ghr |= 1
	}
}

// Predict produces a direction prediction for the conditional branch at pc
// and speculatively updates the global history with it.
func (p *Predictor) Predict(pc arch.Addr) PredState {
	li := int(uint64(pc) % localEntries)
	lh := p.localHist[li] & localMask
	gi := int((p.ghr ^ uint64(pc)) & (globalEntries - 1))
	ci := int(p.ghr & (choiceEntries - 1))
	ps := PredState{
		PC:         pc,
		GHRBefore:  p.ghr,
		LocalIdx:   li,
		LocalHist:  lh,
		GlobalIdx:  gi,
		ChoiceIdx:  ci,
		LocalPred:  taken(p.localCtr[lh]),
		GlobalPred: taken(p.globalCtr[gi]),
		UseGlobal:  taken(p.choiceCtr[ci]),
	}
	if ps.UseGlobal {
		ps.Taken = ps.GlobalPred
	} else {
		ps.Taken = ps.LocalPred
	}
	p.ShiftGHR(ps.Taken)
	return ps
}

// Update trains the tables with the actual outcome of a previously
// predicted branch. It is called at branch resolution.
func (p *Predictor) Update(ps PredState, actual bool) {
	// Choice table: train toward whichever component was right, when they
	// disagree.
	if ps.LocalPred != ps.GlobalPred {
		bump(&p.choiceCtr[ps.ChoiceIdx], ps.GlobalPred == actual)
	}
	bump(&p.globalCtr[ps.GlobalIdx], actual)
	bump(&p.localCtr[ps.LocalHist], actual)
	// Local history register advances with the actual outcome.
	h := p.localHist[ps.LocalIdx] << 1
	if actual {
		h |= 1
	}
	p.localHist[ps.LocalIdx] = h & localMask
}

// Push records a call's return address on the RAS (speculative, at fetch).
func (p *Predictor) Push(ret arch.Addr) {
	p.rasSP = (p.rasSP + 1) % rasEntries
	p.ras[p.rasSP] = ret
}

// Pop predicts a return target from the RAS (speculative, at fetch). It
// leaves the slot's address in place: Restore rewinds only the pointer and
// the top entry, so the entries below a wrong path's pops must survive
// them.
func (p *Predictor) Pop() arch.Addr {
	t := p.ras[p.rasSP]
	p.rasSP = (p.rasSP - 1 + rasEntries) % rasEntries
	return t
}
