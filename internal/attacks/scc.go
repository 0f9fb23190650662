package attacks

// Speculative contention-channel (SCC) attacks transmit through execution
// timing — port pressure, divider occupancy, MSHR pressure — instead of
// cache state. The leak oracle records these as ChanPort / ChanDivider /
// ChanMSHR events when an instruction with secret operands occupies the
// shared resource during transient execution.

// Gadget bodies for the SCC attacks, rendered on the btb and pht triggers.
// X26 holds the secret pointer (set by the trigger), X22 the probe base.
// SMoTHERSpectre and SpectreRewind also run bodyCacheTransmit, the classic
// cache encoding, for comparison: it is the only SCC channel
// shadow-structure defences cover.
const (
	// branch-port: branching on the secret steers fetch and execution-port
	// pressure (the SMoTHERSpectre signal).
	bodyBranchPort = `
    LDR  X5, [X26]
    AND  X5, X5, #1
    CBZ  X5, g_light
    MUL  X7, X7, X7
    MUL  X7, X7, X7
    MUL  X7, X7, X7
g_light:
    NOP
`
	// div-timing: an early-terminating divider's occupancy depends on its
	// operands (the SpectreRewind signal).
	bodyDivTiming = `
    LDR  X5, [X26]
    MOV  X9, #3
    SDIV X7, X5, X9
`
	// port-burst: multiplies consuming the secret occupy the MDU; their
	// residency perturbs older, bound-to-commit instructions (the
	// Speculative Interference signal).
	bodyPortBurst = `
    LDR  X5, [X26]
    MUL  X7, X5, X5
    MUL  X7, X7, X5
    MUL  X7, X7, X5
`
	// mshr-pressure: secret-derived addresses allocate MSHRs.
	bodyMSHRPressure = `
    LDR  X5, [X26]
    LSL  X6, X5, #6
    AND  X6, X6, #4032
    LDR  X8, [X22, X6]
    ADD  X6, X6, #64
    LDR  X8, [X22, X6]
`
)

// SMoTHERSpectre: BTB-injected gadget transmitting through execution-port
// and divider contention; the cache variant is included for comparison.
func SMoTHERSpectre() *Attack {
	return &Attack{
		Name:  "SMoTHERSpectre",
		Class: "SCC",
		Variants: []Variant{
			btb(RelForeign, bodyBranchPort).Variant("branch-port/foreign-key"),
			btb(RelMatching, bodyBranchPort).Variant("branch-port/matching-key"),
			btb(RelMatching, bodyDivTiming).Variant("div-timing/matching-key"),
			btb(RelMatching, bodyCacheTransmit).Variant("cache-transmit/matching-key"),
		},
	}
}

// SpeculativeInterference: PHT-mistrained gadget whose secret-dependent
// resource pressure (MSHRs, execution ports) shifts the timing of older
// bound-to-commit instructions.
func SpeculativeInterference() *Attack {
	return &Attack{
		Name:  "Spec. Interference",
		Class: "SCC",
		Variants: []Variant{
			pht(bodyMSHRPressure).Variant("mshr-pressure"),
			pht(bodyPortBurst).Variant("port-burst"),
		},
	}
}

// SpectreRewind: PHT-mistrained gadget transmitting backwards in time
// through non-pipelined divider contention.
func SpectreRewind() *Attack {
	return &Attack{
		Name:  "SpectreRewind",
		Class: "SCC",
		Variants: []Variant{
			pht(bodyDivTiming).Variant("div-contention"),
			pht(bodyBranchPort).Variant("branch-port"),
			pht(bodyCacheTransmit).Variant("cache-transmit"),
		},
	}
}
