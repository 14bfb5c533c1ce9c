package workload

import (
	"math"
	"sync"
)

// The twelve SPECint2000-flavored kernels. Same register conventions as the
// SPECint95 set.

var spec2000 = sync.OnceValue(func() []*Workload {
	return []*Workload{
		{
			Name:  "bzip2",
			Suite: "SPECint2000",
			Description: "Block sort: repeated compare-and-swap passes over a " +
				"random key array — heavily data-dependent branches.",
			MaxInsts: 1_500_000,
			Source: dataQuads(0xa0000, 512, 101, nil) + `
        li   r10, 0xa0000        ; key array: 512 x 8B (input block)
        clr  r20                 ; swap count
        li   r29, 14             ; sort passes
pass:   mov  r10, r1
        li   r28, 511
cmp:    ldq  r2, 0(r1)
        ldq  r3, 8(r1)
        cmpult r3, r2, r4
        beq  r4, inorder
        stq  r3, 0(r1)           ; swap
        stq  r2, 8(r1)
        addq r20, #1, r20
inorder:
        addq r1, #8, r1
        subq r28, #1, r28
        bgt  r28, cmp
        subq r29, #1, r29
        bgt  r29, pass
        halt
`,
		},
		{
			Name:  "crafty",
			Suite: "SPECint2000",
			Description: "Chess bitboards: attack-set generation with wide " +
				"logical operations, population counts, and leading/trailing zero scans.",
			MaxInsts: 1_200_000,
			Source: dataQuads(0xb0000, 64, 102, nil) + tapeData(0xb8000, 103) + `
        li   r10, 0xb0000        ; 64-entry attack table (input position)
` + tapeSetup("0xb8000") + `
        clr  r20
        clr  r21
        li   r29, 4200
eval:
` + tapeNext("r12") + `
        and  r12, #63, r1        ; square
        s8addq r1, r10, r2
        ldq  r3, 0(r2)           ; occupancy mask
        xor  r3, r12, r4         ; attackers
        and  r4, r3, r5
        bic  r4, r3, r6
        ctpop r5, r7             ; material count
        addq r20, r7, r20
        beq  r6, nomove
        cttz r6, r8              ; first move square
        addq r21, r8, r21
        ornot r5, r6, r16        ; blocked rays
        ctlz r16, r8
        addq r20, r8, r20
nomove: subq r29, #1, r29
        bgt  r29, eval
        halt
`,
		},
		{
			Name:  "eon",
			Suite: "SPECint2000",
			Description: "Ray tracing flavor: floating-point dot products and " +
				"scaling mixed with integer grid stepping (the suite's FP-leaning member).",
			MaxInsts: 1_200_000,
			Source: dataQuads(0xc0000, 768, 104, func(v uint64) uint64 {
				// IEEE doubles in [1, 2): fixed exponent, random mantissa.
				return math.Float64bits(1) | v>>12
			}) + tapeData(0xc8000, 105) + `
        li   r10, 0xc0000        ; vector table: 256 x 3 doubles (input scene)
` + tapeSetup("0xc8000") + `
        clr  r20
        li   r29, 2800
ray:
` + tapeNext("r15") + `
        and  r15, #255, r1       ; pick a vector
        mulq r1, #24, r2
        addq r10, r2, r2
        ldq  r3, 0(r2)
        ldq  r4, 8(r2)
        ldq  r5, 16(r2)
        mult r3, r4, r6          ; dot-product style FP work
        mult r4, r5, r7
        addt r6, r7, r6
        mult r5, r3, r7
        addt r6, r7, r6
        subt r6, r3, r6
        stq  r6, 16(r2)
        ; integer grid step
        srl  r15, #12, r8
        and  r8, #15, r8
        addq r20, r8, r20
        subq r29, #1, r29
        bgt  r29, ray
        halt
`,
		},
		{
			Name:  "gap",
			Suite: "SPECint2000",
			Description: "Computer algebra: multiply-heavy arithmetic chains " +
				"(polynomial evaluation by Horner's rule over input coefficients).",
			MaxInsts: 1_200_000,
			Source: dataQuads(0xd0000, 64, 106, func(v uint64) uint64 { return v & 65535 }) + `
        li   r10, 0xd0000        ; coefficient array: 64 x 8B (input)
        li   r12, 48271          ; evaluation point
        li   r13, 65521          ; modulus (2^16-15)
        clr  r20
        clr  r21
        li   r29, 260            ; evaluations
evalp:  mov  r10, r1
        clr  r2                  ; accumulator
        li   r28, 64
horner: mulq r2, r12, r2         ; acc = acc*x + c
        ldq  r3, 0(r1)
        addq r2, r3, r2
        ; off-chain reduction estimate folded into a checksum
        srl  r2, #16, r4
        mulq r4, r13, r5
        subq r21, r5, r21
        addq r1, #8, r1
        subq r28, #1, r28
        bgt  r28, horner
        addq r20, r2, r20
        subq r29, #1, r29
        bgt  r29, evalp
        halt
`,
		},
		{
			Name:  "gcc00",
			Suite: "SPECint2000",
			Description: "Compiler flavor, 2000 edition: larger node pool (1200 " +
				"nodes, 28KB) and a richer type dispatch than the 95 kernel.",
			MaxInsts: 1_200_000,
			Source: tapeData(0xe8000, 107) + `
        li   r10, 0xe0000        ; node pool: [next, type, value] x 24B
` + tapeSetup("0xe8000") + `
        mov  r10, r1
        li   r29, 1200
build:  lda  r2, 24(r1)
        stq  r2, 0(r1)
` + tapeNext("r4") + `
        and  r4, #15, r5
        stq  r5, 8(r1)
        stq  r4, 16(r1)
        mov  r2, r1
        subq r29, #1, r29
        bgt  r29, build
        subq r1, #24, r1
        stq  r10, 0(r1)
        mov  r10, r1
        clr  r20
        clr  r21
        clr  r22
        li   r29, 4200
walk:   ldq  r2, 8(r1)
        beq  r2, t0
        cmplt r2, #4, r3
        bne  r3, tlow
        cmplt r2, #10, r3
        bne  r3, tmid
        ldq  r4, 16(r1)          ; high types: scaled accumulate
        s4addq r4, r20, r20
        br   r31, adv
t0:     addq r21, #1, r21
        br   r31, adv
tlow:   ldq  r4, 16(r1)
        xor  r22, r4, r22
        br   r31, adv
tmid:   ldq  r4, 16(r1)
        subq r20, r4, r20
adv:    ldq  r1, 0(r1)
        subq r29, #1, r29
        bgt  r29, walk
        halt
`,
		},
		{
			Name:  "gzip",
			Suite: "SPECint2000",
			Description: "LZ77 matching: scan a 16KB input window for longest " +
				"byte matches (tight byte-compare inner loops).",
			MaxInsts: 1_500_000,
			Source: dataBytes(0xf0000, 16384, 108, func(v uint64) uint64 {
				return v & 3 // small alphabet -> real matches exist
			}) + tapeData(0xf8000, 109) + `
        li   r10, 0xf0000        ; window: 16KB (input text)
` + tapeSetup("0xf8000") + `
        clr  r20                 ; total match length
        li   r29, 3800
match:
` + tapeNext("r3") + `
        and  r3, #8191, r1       ; candidate position
        addq r10, r1, r1
        srl  r3, #20, r2
        and  r2, #8191, r2       ; reference position
        addq r10, r2, r2
        clr  r4                  ; match length
        li   r28, 16             ; max match
mloop:  ldbu r5, 0(r1)
        ldbu r6, 0(r2)
        cmpeq r5, r6, r7
        beq  r7, mdone
        addq r4, #1, r4
        addq r1, #1, r1
        addq r2, #1, r2
        subq r28, #1, r28
        bgt  r28, mloop
mdone:  addq r20, r4, r20
        subq r29, #1, r29
        bgt  r29, match
        halt
`,
		},
		{
			Name:  "mcf",
			Suite: "SPECint2000",
			Description: "Network simplex flavor: pointer chasing through a " +
				"512KB arc array — far exceeding the 8KB L1 and pressuring L2.",
			MaxInsts: 1_200_000,
			Source: `
        li   r10, 0x200000       ; arc array: 16384 x 32B = 512KB
        li   r11, 16384
        ; build a pseudo-random permutation ring: arc[i].next points at
        ; arc[(i*9973+7) mod 16384]; 9973 is odd, so the map is a bijection
        ; mod 2^14 and the chase visits a long cycle. Arcs are padded to a
        ; 32B power-of-two stride so one arc never straddles a cache line.
        mov  r10, r1
        clr  r12                 ; i
buildm: mulq r12, #9973, r2
        addq r2, #7, r2
        and  r2, #16383, r2
        sll  r2, #5, r3          ; arc stride 32
        addq r10, r3, r3
        stq  r3, 0(r1)           ; next pointer
        stq  r12, 8(r1)          ; cost
        stq  r2, 16(r1)          ; flow
        lda  r1, 32(r1)
        addq r12, #1, r12
        cmplt r12, r11, r5
        bne  r5, buildm
        ; chase: accumulate costs along the pointer ring
        mov  r10, r1
        clr  r20
        li   r29, 18000
chase:  ldq  r2, 8(r1)           ; cost
        addq r20, r2, r20
        ldq  r3, 16(r1)          ; flow
        cmplt r3, #15000, r4
        cmovne r4, r2, r5        ; conditional reweighting
        cmoveq r4, r31, r5
        addq r20, r5, r20
        ldq  r1, 0(r1)           ; follow the arc
        subq r29, #1, r29
        bgt  r29, chase
        halt
`,
		},
		{
			Name:  "parser",
			Suite: "SPECint2000",
			Description: "Link grammar flavor: table-driven state machine over an " +
				"input token stream with frequent short branches.",
			MaxInsts: 1_200_000,
			Source: dataQuads(0x110000, 512, 110, func(v uint64) uint64 { return v & 63 }) +
				tapeData(0x118000, 111) + `
        li   r10, 0x110000       ; transition table: 64 states x 8 tokens (input grammar)
` + tapeSetup("0x118000") + `
        clr  r12                 ; state
        clr  r20                 ; accept count
        clr  r21                 ; reduce accumulator
        li   r29, 9000
step:
` + tapeNext("r15") + `
        and  r15, #7, r1         ; token
        sll  r12, #3, r2         ; state*8
        addq r2, r1, r2
        s8addq r2, r10, r3
        ldq  r12, 0(r3)          ; next state
        and  r12, #3, r4
        beq  r4, accept
        cmpeq r4, #2, r5
        bne  r5, shift
        addq r21, r1, r21        ; reduce
        br   r31, nexts
accept: addq r20, #1, r20
        br   r31, nexts
shift:  s4addq r1, r21, r21
nexts:  subq r29, #1, r29
        bgt  r29, step
        halt
`,
		},
		{
			Name:  "perlbmk",
			Suite: "SPECint2000",
			Description: "Interpreter flavor: bytecode dispatch loop over an " +
				"input program, the 2000 edition of the perl kernel.",
			MaxInsts: 1_500_000,
			Source: dataQuads(0x120000, 2048, 112, func(v uint64) uint64 {
				if v%4 != 0 {
					v &^= 3 // 75% of bytecodes are pADD
				}
				return v
			}) + `
        .entry main
pADD:   addq r20, r2, r20
        br   r31, pnext
pCAT:   sll  r20, #8, r20
        addq r20, r2, r20
        br   r31, pnext
pHASH:  mulq r20, #31, r20
        addq r20, r2, r20
        br   r31, pnext
pCMP:   cmplt r20, r2, r4
        addq r21, r4, r21
        br   r31, pnext
main:
        li   r10, 0x120000       ; bytecode: 2048 ops (input program)
        li   r11, 0x128000       ; dispatch table
        lea  r1, pADD
        stq  r1, 0(r11)
        lea  r1, pCAT
        stq  r1, 8(r11)
        lea  r1, pHASH
        stq  r1, 16(r11)
        lea  r1, pCMP
        stq  r1, 24(r11)
        clr  r20
        clr  r21
        clr  r12                 ; bytecode PC
        li   r29, 8000
pnext:  subq r29, #1, r29
        ble  r29, done
        and  r12, #2047, r13
        s8addq r13, r10, r14
        ldq  r15, 0(r14)         ; fetch op word
        addq r12, #1, r12
        srl  r15, #24, r2
        and  r2, #255, r2        ; operand
        and  r15, #3, r16        ; opcode
        s8addq r16, r11, r17
        ldq  r27, 0(r17)
        jmp  r26, (r27)
done:   halt
`,
		},
		{
			Name:  "twolf",
			Suite: "SPECint2000",
			Description: "Placement annealing flavor: propose cell swaps, " +
				"compute Manhattan wire-length deltas with CMOV-based abs/min.",
			MaxInsts: 1_200_000,
			Source: dataQuads(0x130000, 1024, 113, func(v uint64) uint64 { return v & 1023 }) +
				tapeData(0x138000, 114) + `
        li   r10, 0x130000       ; cell coordinates: 512 x [x, y] (input placement)
` + tapeSetup("0x138000") + `
        clr  r20                 ; accepted swaps
        clr  r22                 ; current cost
        li   r29, 3400
anneal:
` + tapeNext("r15") + `
        and  r15, #511, r1       ; cell a
        srl  r15, #16, r2
        and  r2, #511, r2        ; cell b
        sll  r1, #4, r3
        addq r10, r3, r3
        sll  r2, #4, r4
        addq r10, r4, r4
        ldq  r5, 0(r3)           ; ax
        ldq  r6, 8(r3)           ; ay
        ldq  r7, 0(r4)           ; bx
        ldq  r8, 8(r4)           ; by
        subq r5, r7, r11         ; dx
        subq r6, r8, r12         ; dy
        negq r11, r13            ; abs via cmov
        cmovlt r11, r13, r11
        negq r12, r13
        cmovlt r12, r13, r12
        addq r11, r12, r13       ; manhattan delta
        cmple r13, #600, r14     ; accept?
        beq  r14, reject
        stq  r7, 0(r3)           ; commit the swap
        stq  r8, 8(r3)
        stq  r5, 0(r4)
        stq  r6, 8(r4)
        addq r20, #1, r20
        addq r22, r13, r22
reject: subq r29, #1, r29
        bgt  r29, anneal
        halt
`,
		},
		{
			Name:  "vortex00",
			Suite: "SPECint2000",
			Description: "Object database, 2000 edition: larger 128-byte records " +
				"with two secondary indices and call-heavy transactions.",
			MaxInsts: 1_500_000,
			Source: tapeData(0x15c000, 115) + `
        .entry main
; insert(r1=key): record at slot key%512
insert: and  r1, #511, r2
        sll  r2, #7, r3          ; slot * 128
        addq r16, r3, r0
        stq  r1, 0(r0)
        stq  r2, 8(r0)
        addq r1, r2, r4
        stq  r4, 16(r0)
        and  r1, #255, r5        ; secondary index 1
        s8addq r5, r17, r6
        stq  r0, 0(r6)
        srl  r1, #3, r5          ; secondary index 2
        and  r5, #255, r5
        s8addq r5, r18, r6
        stq  r0, 0(r6)
        ret  r31, (r26)
; query(r1=key): r0=1 if found via secondary index with valid checksum
query:  and  r1, #255, r5
        s8addq r5, r17, r6
        ldq  r4, 0(r6)           ; record pointer
        beq  r4, qmiss
        ldq  r5, 0(r4)
        cmpeq r5, r1, r0
        beq  r0, qmiss
        ldq  r6, 8(r4)
        ldq  r7, 16(r4)
        addq r5, r6, r8
        cmpeq r8, r7, r0
        ret  r31, (r26)
qmiss:  clr  r0
        ret  r31, (r26)
main:
        li   r16, 0x140000       ; record store: 512 x 128B
        li   r17, 0x150000       ; secondary index 1
        li   r18, 0x158000       ; secondary index 2
` + tapeSetup("0x15c000") + `
        clr  r20
        clr  r21
        li   r29, 3400
txn:
` + tapeNext("r2") + `
        and  r2, #16383, r1
        and  r2, #7, r3
        beq  r3, doq             ; 1-in-8 transactions are queries
        bsr  r26, insert
        addq r21, #1, r21
        br   r31, nextt
doq:    bsr  r26, query
        addq r20, r0, r20
nextt:  subq r29, #1, r29
        bgt  r29, txn
        halt
`,
		},
		{
			Name:  "vpr",
			Suite: "SPECint2000",
			Description: "FPGA routing flavor: breadth-limited grid walks " +
				"computing path costs with min-via-CMOV over an input cost grid.",
			MaxInsts: 1_200_000,
			Source: dataQuads(0x160000, 4096, 116, func(v uint64) uint64 { return v&127 + 1 }) +
				tapeData(0x168000, 117) + `
        li   r10, 0x160000       ; cost grid: 64x64 x 8B (input routing costs)
` + tapeSetup("0x168000") + `
        clr  r20                 ; total route cost
        li   r29, 950
route:
` + tapeNext("r2") + `
        and  r2, #4095, r1       ; start cell index
        clr  r12                 ; path cost
        li   r28, 24             ; walk steps
walkg:  s8addq r1, r10, r2
        ldq  r3, 0(r2)           ; cell cost
        addq r12, r3, r12
        ; pick the cheaper of two neighbors: +1 and +64 (wrap via mask)
        addq r1, #1, r4
        and  r4, #4095, r4
        s8addq r4, r10, r5
        ldq  r6, 0(r5)
        addq r1, #64, r5
        and  r5, #4095, r5
        s8addq r5, r10, r7
        ldq  r8, 0(r7)
        cmplt r6, r8, r11        ; min via cmov
        cmovne r11, r4, r1
        cmoveq r11, r5, r1
        subq r28, #1, r28
        bgt  r28, walkg
        addq r20, r12, r20
        subq r29, #1, r29
        bgt  r29, route
        halt
`,
		},
	}
})
