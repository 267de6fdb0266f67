package power4

import (
	"jasworkload/internal/isa"
	"jasworkload/internal/mem"
)

// This file holds the decoupled halves of the per-instruction detail model
// that the shard group (shard.go) schedules on separate goroutines:
//
//	branch (stageBranch) → core-local memory (stageMemoryShard) → coherence merge → accounting (stageAccount)
//
// The invariant that makes the result bit-identical to the fused loop:
// every piece of mutable model state is owned by exactly one stage, and
// every stage consumes each core's batches in trace order. The branch
// stage owns the predictors and the return-stack counter; the memory stage
// owns the L1s, MMU, prefetcher, translation memo, fast-path registers and
// reservations; the accounting stage owns the counters and the four
// fractional cycle/dispatch accumulators. Stages communicate only through
// per-instruction annotations (flags, burst length, drained prefetch
// counts) that carry exactly what the fused loop would have passed between
// those lines of code in a register. Integer counter updates commute, and
// the order-sensitive float accumulations all live in the accounting
// stage, which replays the fused loop's exact charge sequence from the
// annotations.

// annot carries per-instruction facts from the stage that computed them
// to the stages that account for them.
type annot struct {
	flags  uint32
	burst  uint32 // load-miss burst length after this miss (valid on D-miss)
	prefL1 uint8  // prefetches drained toward L1 by this access
	prefL2 uint8  // prefetches drained toward L2
}

// annot flag bits. The I-side and D-side sets are disjoint so one flags
// word serves both; the source fields hold DataSource values.
const (
	aMispred uint32 = 1 << iota // branch mispredicted (branch stage)

	aFastI     // I-fetch took the same-line fast path
	aUnmappedI // PC outside every region: fetch did nothing else
	aIERATMiss
	aITLBMiss
	aISLBMiss
	aL1IHit   // mapped fetch hit the L1I
	aIHideSeq // I-miss to the sequential next line (front-end prefetch hides most)

	aFastL     // load took the repeat-line fast path
	aUnmappedD // EA outside every region: access did nothing else
	aDERATMiss
	aDTLBMiss
	aDSLBMiss
	aL1DHit    // load hit the L1D
	aCovered   // a prefetch stream covered this access
	aPrefAlloc // the miss allocated a new prefetch stream
	aStoreHit  // store probe hit the L1D
	aStcxOK    // store-conditional succeeded

	// Source fields: 2 bits of collapsed I-fetch source, 4 bits of
	// DataSource for loads.
	iSrcShift = 20
	dSrcShift = 24
)

const (
	iSrcL2  uint32 = iota // FetchInst collapsed source: L2-class
	iSrcL3                // L3-class
	iSrcMem               // memory
)

// acctState is the accounting stage's private state for one core: the
// counters plus the fractional cycle/dispatch accumulators, mirroring the
// corresponding Core fields. Keeping a group-local copy (rather than
// writing the Core's fields from the accountant goroutine) avoids false
// sharing with the memory-stage fields that live in the same cache lines;
// the state is copied back into the Core at every drain barrier.
type acctState struct {
	ctr      Counters
	cycFrac  float64
	compFrac float64
	dispFrac float64
	kcycFrac float64
	acc      batchAcc
}

func (a *acctState) loadFrom(c *Core) {
	a.ctr = c.ctr
	a.cycFrac, a.compFrac = c.cycFrac, c.compFrac
	a.dispFrac, a.kcycFrac = c.dispFrac, c.kcycFrac
	a.acc = batchAcc{}
}

func (a *acctState) storeTo(c *Core) {
	c.ctr = a.ctr
	c.cycFrac, c.compFrac = a.cycFrac, a.compFrac
	c.dispFrac, c.kcycFrac = a.dispFrac, a.kcycFrac
}

// The charge helpers are verbatim copies of Core.chargeBase/chargeStall/
// flushCycles/addDispatch over the local state: the float operation
// sequence must match the fused loop exactly for bit-equality.

func (a *acctState) chargeBase(cy float64, kernel bool) {
	a.cycFrac += cy
	a.compFrac += cy
	if kernel {
		a.kcycFrac += cy
	}
	if a.cycFrac >= 1 || a.compFrac >= 1 || a.kcycFrac >= 1 {
		a.flushCycles()
	}
}

func (a *acctState) chargeStall(cy float64, kernel bool) {
	a.cycFrac += cy
	if kernel {
		a.kcycFrac += cy
	}
	if a.cycFrac >= 1 || a.kcycFrac >= 1 {
		a.flushCycles()
	}
}

func (a *acctState) flushCycles() {
	if a.cycFrac >= 1 {
		n := uint64(a.cycFrac)
		a.ctr.Add(EvCycles, n)
		a.cycFrac -= float64(n)
	}
	if a.compFrac >= 1 {
		n := uint64(a.compFrac)
		a.ctr.Add(EvCycWithCompletion, n)
		a.compFrac -= float64(n)
	}
	if a.kcycFrac >= 1 {
		n := uint64(a.kcycFrac)
		a.ctr.Add(EvKernelCycles, n)
		a.kcycFrac -= float64(n)
	}
}

func (a *acctState) addDispatch(n float64) {
	a.dispFrac += n
	if a.dispFrac >= 1 {
		k := uint64(a.dispFrac)
		a.ctr.Add(EvInstDispatched, k)
		a.dispFrac -= float64(k)
	}
}

// addPrefetch mirrors drainPrefetch's counter half (early-out when the
// drain was empty, then both adds).
func (a *acctState) addPrefetch(an *annot) {
	if an.prefL1 == 0 && an.prefL2 == 0 {
		return
	}
	a.ctr.Add(EvL1DPrefetch, uint64(an.prefL1))
	a.ctr.Add(EvL2Prefetch, uint64(an.prefL2))
}

// ---------------------------------------------------------- branch stage

// stageBranch runs the branch model over a batch: the predictors and the
// return-stack counter are the only mutable state this stage touches, in
// trace order, exactly as the fused loop would.
func (c *Core) stageBranch(ins []isa.Instr, ann []annot) {
	for i := range ins {
		in := &ins[i]
		var f uint32
		switch in.Class {
		case isa.ClassBranchCond:
			if !c.cond.Predict(in.PC, in.Taken) {
				f = aMispred
			}
		case isa.ClassBranchIndirect:
			if in.Return {
				c.returnSeq++
				if c.returnSeq%32 == 0 {
					f = aMispred
				}
			} else if !c.target.Predict(in.PC, in.Target) {
				f = aMispred
			}
		}
		ann[i] = annot{flags: f}
	}
}

// ---------------------------------------------------------- memory stage

// memTranslateData is dataTranslate's structural half: translation and
// MMU lookups, recording outcomes instead of charging for them. The
// deferred memory stage (stageMemoryShard) builds on it.
func (c *Core) memTranslateData(in *isa.Instr, an *annot) (tr mem.Translation, ok bool) {
	if c.fastD && !c.noFast && in.EA>>12 == c.lastDEA>>12 {
		tr = c.lastDTr
		tr.RA += in.EA - c.lastDEA
		c.lastDEA = in.EA
		c.lastDTr = tr
		return tr, true
	}
	tr, ok = c.translate(in.EA)
	if !ok {
		c.unmapped++
		c.fastD = false
		an.flags |= aUnmappedD
		return tr, false
	}
	c.fastD = true
	c.lastDEA = in.EA
	c.lastDTr = tr
	res := c.mmu.Data(tr)
	if res.ERATMiss {
		an.flags |= aDERATMiss
	}
	if res.TLBMiss {
		an.flags |= aDTLBMiss
	}
	if res.SLBMiss {
		an.flags |= aDSLBMiss
	}
	return tr, true
}

// ------------------------------------------------------ accounting stage

// stageAccount replays the fused loop's accounting over a batch: the
// same counter increments and — critically — the same float-operation
// sequence on the cycle/dispatch accumulators, reconstructed from the
// annotations.
func (c *Core) stageAccount(ins []isa.Instr, ann []annot, a *acctState) {
	p := &c.cfg.Penalties
	for i := range ins {
		in := &ins[i]
		an := &ann[i]
		f := an.flags

		a.acc.inst++
		if in.Kernel {
			a.acc.kinst++
		}
		switch {
		case in.Class.IsMemory():
			a.addDispatch(p.DispatchMem)
		case in.Class.IsBranch():
			a.addDispatch(p.DispatchBranch)
		default:
			a.addDispatch(p.DispatchALU)
		}
		a.chargeBase(p.BaseCPI, in.Kernel)

		// I-side, in fetch's order.
		if f&aFastI != 0 {
			a.acc.ifetchL1++
		} else if f&aUnmappedI == 0 {
			if f&aIERATMiss != 0 {
				a.ctr.Inc(EvIERATMiss)
				a.chargeStall(p.DERATMiss, in.Kernel)
			}
			if f&aITLBMiss != 0 {
				a.ctr.Inc(EvITLBMiss)
				a.chargeStall(p.TLBWalk, in.Kernel)
			}
			if f&aISLBMiss != 0 {
				a.ctr.Inc(EvSLBMiss)
				a.chargeStall(p.SLBWalk, in.Kernel)
			}
			if f&aL1IHit != 0 {
				a.acc.ifetchL1++
			} else {
				a.ctr.Inc(EvL1IMiss)
				hide := 1.0
				if f&aIHideSeq != 0 {
					hide = 0.2
				}
				switch (f >> iSrcShift) & 3 {
				case iSrcL2:
					a.ctr.Inc(EvIFetchL2)
					a.chargeStall(p.IMissL2*hide, in.Kernel)
				case iSrcL3:
					a.ctr.Inc(EvIFetchL3)
					a.chargeStall(p.IMissL3*hide, in.Kernel)
				default:
					a.ctr.Inc(EvIFetchMem)
					a.chargeStall(p.IMissMem*hide, in.Kernel)
				}
			}
		}

		switch in.Class {
		case isa.ClassLoad:
			a.acc.loads++
			c.accountLoad(in, an, a)
		case isa.ClassStore:
			a.acc.stores++
			c.accountStore(in, an, a)
		case isa.ClassBranchCond:
			a.acc.brCond++
			if f&aMispred != 0 {
				a.ctr.Inc(EvBrCondMispred)
				a.chargeStall(p.CondMispred, in.Kernel)
				a.addDispatch(p.WrongPathDispatch)
			}
		case isa.ClassBranchIndirect:
			a.acc.brInd++
			if f&aMispred != 0 {
				a.ctr.Inc(EvBrTargetMispred)
				a.chargeStall(p.TargetMispred, in.Kernel)
				a.addDispatch(p.WrongPathDispatch)
			}
		case isa.ClassLarx:
			a.acc.loads++
			a.ctr.Inc(EvLarx)
			c.accountLoad(in, an, a)
		case isa.ClassSync:
			a.ctr.Inc(EvSyncCount)
			drain := p.SyncDrainUser
			if in.Kernel {
				drain = p.SyncDrainKernel
				a.ctr.Add(EvKernelSyncSRQCycles, uint64(drain))
			}
			a.ctr.Add(EvSyncSRQCycles, uint64(drain))
			a.chargeStall(drain, in.Kernel)
		case isa.ClassStcx:
			a.acc.stores++
			a.ctr.Inc(EvStcx)
			if f&aStcxOK == 0 {
				a.ctr.Inc(EvStcxFail)
			}
			c.accountStore(in, an, a)
			a.chargeStall(p.StcxCost, in.Kernel)
		}
	}
	a.acc.flush(&a.ctr)
}

// accountDTrans replays dataTranslate's charges. Flags are only set when
// the slow path ran, so the fast-path and unmapped cases fall through
// charge-free exactly as in the fused loop.
func accountDTrans(f uint32, kernel bool, p *Penalties, a *acctState) {
	if f&aDERATMiss != 0 {
		a.ctr.Inc(EvDERATMiss)
		a.chargeStall(p.DERATMiss, kernel)
		a.addDispatch(p.DERATMiss / p.RetryDispatchDiv)
	}
	if f&aDTLBMiss != 0 {
		a.ctr.Inc(EvDTLBMiss)
		a.chargeStall(p.TLBWalk, kernel)
	}
	if f&aDSLBMiss != 0 {
		a.ctr.Inc(EvSLBMiss)
		a.chargeStall(p.SLBWalk, kernel)
	}
}

// accountLoad replays load's charges from the annotations.
func (c *Core) accountLoad(in *isa.Instr, an *annot, a *acctState) {
	p := &c.cfg.Penalties
	f := an.flags
	if f&aFastL != 0 {
		a.addDispatch(p.SpecAheadDispatch)
		return
	}
	accountDTrans(f, in.Kernel, p, a)
	if f&aUnmappedD != 0 {
		return
	}
	if f&aL1DHit != 0 {
		a.addDispatch(p.SpecAheadDispatch)
		if f&aCovered != 0 {
			a.addPrefetch(an)
		}
		return
	}
	a.ctr.Inc(EvL1DLoadMiss)
	if f&aPrefAlloc != 0 {
		a.ctr.Inc(EvPrefStreamAlloc)
	}
	a.addPrefetch(an)
	var lat float64
	switch DataSource((f >> dSrcShift) & 15) {
	case SrcL2:
		a.ctr.Inc(EvDataFromL2)
		lat = p.L2Latency
	case SrcL25Shr:
		a.ctr.Inc(EvDataFromL25Shr)
		lat = p.RemoteL2
	case SrcL25Mod:
		a.ctr.Inc(EvDataFromL25Shr) // same bucket; our topology never produces it
		lat = p.RemoteL2
	case SrcL275Shr:
		a.ctr.Inc(EvDataFromL275Shr)
		lat = p.RemoteL2
	case SrcL275Mod:
		a.ctr.Inc(EvDataFromL275Mod)
		lat = p.RemoteL2
	case SrcL3:
		a.ctr.Inc(EvDataFromL3)
		lat = p.L3Latency
	case SrcL35:
		a.ctr.Inc(EvDataFromL35)
		lat = p.RemoteL3
	default:
		a.ctr.Inc(EvDataFromMem)
		lat = p.MemLatency
	}
	exposure := p.LoadExposure + p.BurstExposure*float64(int(an.burst)-1)
	if exposure > 1 {
		exposure = 1
	}
	if f&aCovered != 0 {
		exposure = p.PrefCovered
	}
	a.chargeStall(lat*exposure, in.Kernel)
}

// accountStore replays store's charges from the annotations.
func (c *Core) accountStore(in *isa.Instr, an *annot, a *acctState) {
	p := &c.cfg.Penalties
	f := an.flags
	accountDTrans(f, in.Kernel, p, a)
	if f&aUnmappedD != 0 {
		return
	}
	if f&aStoreHit == 0 {
		a.ctr.Inc(EvL1DStoreMiss)
		a.chargeStall(p.StoreMissCost, in.Kernel)
	}
}
