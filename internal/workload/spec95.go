package workload

import "sync"

// The eight SPECint95-flavored kernels. Register conventions: r29 outer loop
// counter, r28 inner counter, r10.. data base pointers, r20.. accumulators,
// r24/r25 input-tape base/cursor (r23 tape scratch), r26 return address,
// r27 call target.

var spec95 = sync.OnceValue(func() []*Workload {
	return []*Workload{
		{
			Name:  "compress",
			Suite: "SPECint95",
			Description: "LZW-style compression: arithmetic rolling hash of an " +
				"input byte tape probing a 4096-entry code table, inserting on miss.",
			MaxInsts: 1_000_000,
			Source: tapeData(0x18000, 11) + `
        li   r10, 0x10000        ; code table (4096 x 8B, starts empty)
` + tapeSetup("0x18000") + `
        clr  r20                 ; codes emitted
        clr  r21                 ; rolling key
        clr  r22                 ; hits
        li   r29, 3600
loop:
` + tapeNext("r2") + `
        and  r2, #255, r1        ; first input byte
        srl  r2, #8, r3
        and  r3, #255, r3        ; second input byte
        s4addq r21, r1, r21      ; roll the key: key = key*4 + b1
        s4addq r21, r3, r21      ;               key = key*4 + b2
        s8addq r21, r21, r5      ; hash: key*9
        srl  r5, #4, r5
        and  r5, #4095, r5
        s8addq r5, r10, r6       ; &table[h]
        ldq  r7, 0(r6)
        cmpeq r7, r21, r8
        bne  r8, hit
        stq  r21, 0(r6)          ; install new code
        addq r20, #1, r20
        br   r31, next
hit:    addq r22, #1, r22
next:   subq r29, #1, r29
        bgt  r29, loop
        halt
`,
		},
		{
			Name:  "gcc",
			Suite: "SPECint95",
			Description: "Compiler-style IR walk: build a 600-node linked pool " +
				"(14KB, exceeding the 8KB L1D) from input data, then traverse with " +
				"type-dependent branches.",
			MaxInsts: 1_000_000,
			Source: tapeData(0x28000, 22) + `
        li   r10, 0x20000        ; node pool: [next, type, value] x 24B
` + tapeSetup("0x28000") + `
        mov  r10, r1
        li   r29, 600
build:  lda  r2, 24(r1)
        stq  r2, 0(r1)
` + tapeNext("r4") + `
        and  r4, #7, r5
        stq  r5, 8(r1)
        stq  r4, 16(r1)
        mov  r2, r1
        subq r29, #1, r29
        bgt  r29, build
        subq r1, #24, r1
        stq  r10, 0(r1)          ; close the ring
        ; traversal with type-dependent work
        mov  r10, r1
        clr  r20                 ; arithmetic accumulator
        clr  r21                 ; leaf count
        clr  r22                 ; bitwise signature
        li   r29, 5200
walk:   ldq  r2, 8(r1)           ; type
        beq  r2, t0
        cmplt r2, #4, r3
        bne  r3, tsmall
        ldq  r4, 16(r1)          ; big type: accumulate
        addq r20, r4, r20
        br   r31, adv
t0:     addq r21, #1, r21
        br   r31, adv
tsmall: ldq  r4, 16(r1)
        xor  r22, r4, r22
adv:    ldq  r1, 0(r1)
        subq r29, #1, r29
        bgt  r29, walk
        halt
`,
		},
		{
			Name:  "go",
			Suite: "SPECint95",
			Description: "Game-tree evaluation: scan a 19x19 board of random " +
				"stones, counting chains and liberties with data-dependent branches and CMOVs.",
			MaxInsts: 1_000_000,
			Source: dataBytes(0x30000, 361, 33, func(v uint64) uint64 {
				if v&3 == 3 {
					return 0 // empties dominate
				}
				return v & 3
			}) + `
        li   r10, 0x30000        ; board: 361 cells x 1B (input position)
        clr  r20                 ; score
        clr  r21                 ; empty count
        li   r29, 30             ; passes
pass:   lda  r1, 20(r10)         ; skip the border row/col
        li   r28, 320
cell:   ldbu r2, 0(r1)
        beq  r2, empty
        ldbu r3, -1(r1)          ; west neighbor
        ldbu r4, 1(r1)           ; east
        ldbu r5, -19(r1)         ; north
        ldbu r6, 19(r1)          ; south
        cmpeq r3, r2, r7         ; same-color neighbors
        cmpeq r4, r2, r8
        addq r7, r8, r7
        cmpeq r5, r2, r8
        addq r7, r8, r7
        cmpeq r6, r2, r8
        addq r7, r8, r7
        cmplt r7, #2, r8         ; weak group?
        cmovne r8, r7, r11
        cmoveq r8, r31, r11
        addq r20, r11, r20
        cmpeq r2, #1, r7
        bne  r7, black
        subq r20, #1, r20
        br   r31, nextc
black:  addq r20, #2, r20
        br   r31, nextc
empty:  addq r21, #1, r21
nextc:  addq r1, #1, r1
        subq r28, #1, r28
        bgt  r28, cell
        subq r29, #1, r29
        bgt  r29, pass
        halt
`,
		},
		{
			Name:  "ijpeg",
			Suite: "SPECint95",
			Description: "Image transform: 1-D 8-point DCT-like multiply-" +
				"accumulate butterflies over sample rows with descale shifts.",
			MaxInsts: 1_200_000,
			Source: dataQuads(0x40000, 1024, 44, func(v uint64) uint64 {
				return uint64(int64(v&1023) - 512) // centered samples
			}) + `
        li   r10, 0x40000        ; sample buffer: 1024 x 8B (input image)
        li   r12, 1004           ; scaled cosine constants
        li   r13, 851
        li   r14, 569
        li   r15, 196
        clr  r20
        li   r29, 45             ; block passes
pass:   mov  r10, r1
        li   r28, 128            ; rows of 8
row:    ldq  r2, 0(r1)
        ldq  r3, 8(r1)
        ldq  r4, 16(r1)
        ldq  r5, 24(r1)
        addq r2, r5, r6          ; butterflies
        subq r2, r5, r7
        addq r3, r4, r8
        subq r3, r4, r11
        mulq r6, r12, r6
        mulq r7, r13, r7
        mulq r8, r14, r8
        mulq r11, r15, r11
        sra  r6, #10, r6         ; descale each product
        sra  r7, #10, r7
        sra  r8, #10, r8
        sra  r11, #10, r11
        addq r6, r8, r6
        subq r7, r11, r7
        stq  r6, 0(r1)
        stq  r7, 8(r1)
        addq r20, r6, r20
        lda  r1, 64(r1)
        subq r28, #1, r28
        bgt  r28, row
        subq r29, #1, r29
        bgt  r29, pass
        halt
`,
		},
		{
			Name:  "li",
			Suite: "SPECint95",
			Description: "Lisp interpreter: build a 700-cell cons list from input " +
				"data, then recursively sum it (deep call/return chains through a software stack).",
			MaxInsts: 1_200_000,
			Source: tapeData(0x58000, 55) + `
        .entry main
; sumlist(r1 = cell) -> r0, recursive: car + sumlist(cdr)
sumlist:
        beq  r1, snil
        subq r30, #16, r30       ; push frame
        stq  r26, 0(r30)
        ldq  r2, 8(r1)           ; car
        stq  r2, 8(r30)
        ldq  r1, 0(r1)           ; cdr
        bsr  r26, sumlist
        ldq  r2, 8(r30)
        addq r0, r2, r0
        ldq  r26, 0(r30)
        addq r30, #16, r30
        ret  r31, (r26)
snil:   clr  r0
        ret  r31, (r26)
main:
        li   r30, 0x80000        ; software stack (grows down)
        li   r10, 0x50000        ; cons pool: [cdr, car] x 16B
` + tapeSetup("0x58000") + `
        clr  r1                  ; nil
        li   r29, 15
build:
` + tapeNext("r4") + `
        and  r4, #1023, r2
        stq  r1, 0(r10)          ; cdr = previous head
        stq  r2, 8(r10)          ; car = input value
        mov  r10, r1
        lda  r10, 16(r10)
        subq r29, #1, r29
        bgt  r29, build
        mov  r1, r11             ; list head
        clr  r20
        li   r29, 420            ; repeated traversals
sum:    mov  r11, r1
        bsr  r26, sumlist
        addq r20, r0, r20
        subq r29, #1, r29
        bgt  r29, sum
        halt
`,
		},
		{
			Name:  "m88ksim",
			Suite: "SPECint95",
			Description: "CPU simulator: fetch pseudo-instructions from an input " +
				"image, decode opcode fields with shifts/masks, dispatch through an " +
				"indirect jump table.",
			MaxInsts: 1_000_000,
			Source: dataQuads(0x60000, 512, 66, func(v uint64) uint64 {
				if v%5 != 0 {
					v &^= 0x300 // 80% of emulated instructions are op0
				}
				return v
			}) + `
        .entry main
op0:    addq r20, r2, r20        ; emulated ADD
        br   r31, dispd
op1:    subq r20, r2, r20        ; emulated SUB
        br   r31, dispd
op2:    xor  r21, r2, r21        ; emulated XOR (bitwise accumulator)
        br   r31, dispd
op3:    s4addq r20, r2, r20      ; emulated scaled add
        br   r31, dispd
main:
        li   r10, 0x60000        ; emulated instruction memory: 512 words
        li   r11, 0x68000        ; dispatch table: 4 entries
        ; build the dispatch table
        lea  r1, op0
        stq  r1, 0(r11)
        lea  r1, op1
        stq  r1, 8(r11)
        lea  r1, op2
        stq  r1, 16(r11)
        lea  r1, op3
        stq  r1, 24(r11)
        ; fetch-decode-dispatch loop
        clr  r20
        clr  r21
        clr  r12                 ; emulated PC
        li   r29, 7000
disp:   and  r12, #511, r13
        s8addq r13, r10, r14
        ldq  r15, 0(r14)         ; fetch
        srl  r15, #20, r2
        and  r2, #4095, r2       ; operand field
        srl  r15, #8, r16
        and  r16, #3, r16        ; opcode field
        s8addq r16, r11, r17
        ldq  r27, 0(r17)
        jsr  r26, (r27)          ; dispatch
dispd:  addq r12, #1, r12
        subq r29, #1, r29
        bgt  r29, disp
        halt
`,
		},
		{
			Name:  "perl",
			Suite: "SPECint95",
			Description: "Interpreter hash tables: hash input byte strings into a " +
				"1024-bucket table with probe chains and byte-granularity key reads.",
			MaxInsts: 1_200_000,
			Source: dataBytes(0x70000, 4096, 77, nil) + tapeData(0x7c000, 78) + `
        li   r10, 0x70000        ; string area: 4KB of input bytes
        li   r11, 0x78000        ; hash table: 1024 buckets x 8B
` + tapeSetup("0x7c000") + `
        li   r14, 1327217885     ; hash finalizer multiplier
        clr  r20                 ; found
        clr  r21                 ; inserted
        li   r29, 1900
lookup:
` + tapeNext("r2") + `
        and  r2, #4087, r1       ; key offset (room for 8 bytes)
        addq r10, r1, r1
        ; hash 8 key bytes (multiply-accumulate, Horner style)
        clr  r4
        li   r28, 8
hash:   ldbu r5, 0(r1)
        sll  r4, #5, r6          ; h*31 = (h<<5) - h
        subq r6, r4, r4
        addq r4, r5, r4
        addq r1, #1, r1
        subq r28, #1, r28
        bgt  r28, hash
        mulq r4, r14, r5         ; finalize
        srl  r5, #16, r5
        and  r5, #1023, r5       ; bucket
        s8addq r5, r11, r6
        ldq  r7, 0(r6)
        cmpeq r7, r4, r8
        bne  r8, found
        stq  r4, 0(r6)           ; insert
        addq r21, #1, r21
        br   r31, nextl
found:  addq r20, #1, r20
nextl:  subq r29, #1, r29
        bgt  r29, lookup
        halt
`,
		},
		{
			Name:  "vortex",
			Suite: "SPECint95",
			Description: "Object database: insert and query 64-byte records " +
				"through subroutine calls, validating fields and updating indices.",
			MaxInsts: 1_200_000,
			Source: tapeData(0x98000, 88) + `
        .entry main
; insert(r1 = key): writes record at slot key%256, returns r0 = slot addr
insert: and  r1, #255, r2
        sll  r2, #6, r3          ; slot * 64
        addq r16, r3, r0         ; record address
        stq  r1, 0(r0)           ; key
        stq  r2, 8(r0)           ; payload
        addq r1, r2, r4
        stq  r4, 16(r0)          ; checksum
        stq  r31, 24(r0)         ; flags
        ret  r31, (r26)
; query(r1 = key): r0 = 1 if present with valid checksum
query:  and  r1, #255, r2
        sll  r2, #6, r3
        addq r16, r3, r4
        ldq  r5, 0(r4)
        cmpeq r5, r1, r0
        beq  r0, qdone
        ldq  r6, 8(r4)
        ldq  r7, 16(r4)
        addq r5, r6, r8
        cmpeq r8, r7, r0
qdone:  ret  r31, (r26)
main:
        li   r16, 0x90000        ; record store: 256 x 64B
` + tapeSetup("0x98000") + `
        clr  r20
        clr  r21
        li   r29, 3200
txn:
` + tapeNext("r2") + `
        and  r2, #8191, r1       ; key
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
	}
})
