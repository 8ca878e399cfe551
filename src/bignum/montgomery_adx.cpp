#include "bignum/montgomery_adx.h"

#if defined(__x86_64__) && defined(__ELF__)
#include <cpuid.h>
#endif

namespace sgk::adx {

namespace {
bool cpu_has_bmi2_adx() {
#if defined(__x86_64__) && defined(__ELF__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
#else
  return false;
#endif
}
}  // namespace

bool selected() {
  static const bool cpu = cpu_has_bmi2_adx();
  return cpu;
}

}  // namespace sgk::adx

#if defined(__x86_64__) && defined(__ELF__)
// The routines, in AT&T syntax. At 16 limbs the accumulator window is 2k
// words on the routine's stack and each row streams through it; register
// use there:
//   %rdi  accumulator window: word 0 is the row's lowest word; it moves up
//         one word per reduction, so the result ends k words up
//   %rsi  a            %rcx  n            %r9   b (product only)
//   %r8   n0_inv       %rdx  the row's multiplier (MULX's implicit operand)
//   %rbx  zero         %r13  carry word above the window
//   %r14  the word the next reduction multiplier m = word * n0_inv is
//         taken from          %r15  loop end
//   %rax:%r10, %r11:%r12  low:high halves of the even and odd steps' products
// At 8 limbs the window lives in registers instead (see sgk_adx8_row). In
// every routine a row's two carry chains never cross an instruction that
// writes flags (IMUL, CMP and XOR sit between rows), and every loop runs k
// times. Every routine ends in the same final subtraction: the result minus
// n on one SUB/SBB borrow chain through the carry word, then, limb by limb,
// a CMOV on the last borrow keeps the result where the difference is
// negative. CMOV has no branch and reads both of its operands every time.
// out is written only after the last read of a and b, so it may alias
// either.
asm(R"(
	.pushsection .text, "ax", @progbits

# One step of a row: rdx * src into a low:high pair, then the previous
# step's high half (the other pair's; zero before step 0) + the word at dst
# (ADCX chain, if add) + this low half (ADOX chain) is the row's word at dst,
# stored if store.
	.macro sgk_adx_step src, dst, odd, add=1, store=1
	.if \odd
	mulxq \src, %r11, %r12
	.if \add
	adcxq \dst, %r10
	.endif
	adoxq %r11, %r10
	.if \store
	movq %r10, \dst
	.endif
	.else
	mulxq \src, %rax, %r10
	.if \add
	adcxq \dst, %r12
	.endif
	adoxq %rax, %r12
	.if \store
	movq %r12, \dst
	.endif
	.endif
	.endm

# A row: rdx * src[0 .. k) added into the k words at (%rdi) (written, not
# added, if add = 0). The last high half is left in %r12 with both chains'
# carries pending into word k. skip0: word 0 is not stored (a reduction
# row zeroes it). save = 0 or 1: word `save` is copied into %r14.
	.macro sgk_adx_row k, src, add=1, skip0=0, save=-1
	xorl %r12d, %r12d
	.set .Lsgk_j, 0
	.rept \k
	.if .Lsgk_j == 0 && \skip0
	sgk_adx_step 0(\src), 0(%rdi), 0, \add, 0
	.else
	sgk_adx_step 8*.Lsgk_j(\src), 8*.Lsgk_j(%rdi), .Lsgk_j&1, \add
	.endif
	.if .Lsgk_j == \save
	.if \save
	movq %r10, %r14
	.else
	movq %r12, %r14
	.endif
	.endif
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	.endm

# Entry and exit: saves the callee-saved registers and reserves `frame`
# bytes of stack.
	.macro sgk_adx_enter name, frame
	.p2align 5
	.globl \name
	.hidden \name
	.type \name, @function
\name:
	.cfi_startproc
	endbr64
	.irp reg, %rbx, %rbp, %r12, %r13, %r14, %r15
	pushq \reg
	.cfi_adjust_cfa_offset 8
	.cfi_rel_offset \reg, 0
	.endr
	subq $(\frame), %rsp
	.cfi_adjust_cfa_offset (\frame)
	.endm

	.macro sgk_adx_leave name, frame
	addq $(\frame), %rsp
	.cfi_adjust_cfa_offset -(\frame)
	.irp reg, %r15, %r14, %r13, %r12, %rbp, %rbx
	popq \reg
	.cfi_adjust_cfa_offset -8
	.cfi_restore \reg
	.endr
	ret
	.cfi_endproc
	.size \name, . - \name
	.endm

# Final subtraction at 16 limbs: (r13 : the k words at (%rdi)) - n goes
# into the k spent words below them; then out, saved at 16k(%rsp), gets the
# difference, or the window's words where the subtraction borrowed.
	.macro sgk_adx_final k
	.set .Lsgk_j, 0
	.rept \k
	movq 8*.Lsgk_j(%rdi), %rdx
	.if .Lsgk_j
	sbbq 8*.Lsgk_j(%rcx), %rdx
	.else
	subq (%rcx), %rdx
	.endif
	movq %rdx, 8*(.Lsgk_j-\k)(%rdi)
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	sbbq $0, %r13
	movq 16*\k(%rsp), %rax
	.set .Lsgk_j, 0
	.rept \k
	movq 8*(.Lsgk_j-\k)(%rdi), %rdx
	cmovcq 8*.Lsgk_j(%rdi), %rdx
	movq %rdx, 8*.Lsgk_j(%rax)
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	.endm

# void sgk_mont_mul<k>_adx(u64* out, const u64* a, const u64* b,
#                          const u64* n, u64 n0_inv): for each b[i], a row
# adds a * b[i] into the window, then a reduction row adds m * n, which
# zeroes word 0, and the window moves up a word.
	.macro sgk_adx_mul k
	sgk_adx_enter sgk_mont_mul\k\()_adx, 16*\k+16
	movq %rdi, 16*\k(%rsp)
	movq %rsp, %rdi
	movq %rdx, %r9
	leaq 8*\k(%rdx), %r15
	xorl %ebx, %ebx
	movq (%r9), %rdx
	sgk_adx_row \k, %rsi, add=0, save=0
	adoxq %rbx, %r12
	movq %r12, 8*\k(%rdi)
	xorl %r13d, %r13d
	jmp 2f
	.p2align 4
1:
	movq (%r9), %rdx
	sgk_adx_row \k, %rsi, save=0
	adcxq %r13, %r12
	adoxq %rbx, %r12
	movq %r12, 8*\k(%rdi)
	movq %rbx, %r13
	adcxq %rbx, %r13
	adoxq %rbx, %r13
2:
	imulq %r8, %r14
	movq %r14, %rdx
	sgk_adx_row \k, %rcx, skip0=1
	adcxq 8*\k(%rdi), %r12
	adoxq %rbx, %r12
	movq %r12, 8*\k(%rdi)
	adcxq %rbx, %r13
	adoxq %rbx, %r13
	leaq 8(%rdi), %rdi
	leaq 8(%r9), %r9
	cmpq %r15, %r9
	jne 1b
	sgk_adx_final \k
	sgk_adx_leave sgk_mont_mul\k\()_adx, 16*\k+16
	.endm

# a^2 into (%rdi)[0 .. 2k): the cross products a[i] * a[i+1 .. k), once
# each, as a row at word 2i + 1 (the row's top word is new, so its carries
# end there); then one pass doubles every word on the ADCX chain while the
# ADOX chain adds a[i]^2 at word 2i. Needs %rbx = 0.
	.macro sgk_adx_square k
	movq %rbx, (%rdi)
	movq %rbx, 8*(2*\k-1)(%rdi)
	.set .Lsgk_i, 0
	.rept \k-1
	movq 8*.Lsgk_i(%rsi), %rdx
	xorl %r12d, %r12d
	.set .Lsgk_s, 0
	.rept \k-1-.Lsgk_i
	sgk_adx_step 8*(.Lsgk_i+1+.Lsgk_s)(%rsi), 8*(2*.Lsgk_i+1+.Lsgk_s)(%rdi), .Lsgk_s&1, .Lsgk_i>0
	.set .Lsgk_s, .Lsgk_s + 1
	.endr
	.if .Lsgk_s & 1
	adcxq %rbx, %r10
	adoxq %rbx, %r10
	movq %r10, 8*(.Lsgk_i+\k)(%rdi)
	.else
	adcxq %rbx, %r12
	adoxq %rbx, %r12
	movq %r12, 8*(.Lsgk_i+\k)(%rdi)
	.endif
	.set .Lsgk_i, .Lsgk_i + 1
	.endr
	xorl %eax, %eax
	.set .Lsgk_i, 0
	.rept \k
	movq 8*.Lsgk_i(%rsi), %rdx
	mulxq %rdx, %rax, %r10
	movq 16*.Lsgk_i(%rdi), %r11
	movq 16*.Lsgk_i+8(%rdi), %r12
	adcxq %r11, %r11
	adoxq %rax, %r11
	adcxq %r12, %r12
	adoxq %r10, %r12
	movq %r11, 16*.Lsgk_i(%rdi)
	movq %r12, 16*.Lsgk_i+8(%rdi)
	.set .Lsgk_i, .Lsgk_i + 1
	.endr
	.endm

# void sgk_mont_sqr<k>_adx(u64* out, const u64* a, const u64* n,
#                          u64 n0_inv): a^2 into the window's 2k words, then
# k reduction rows m * n move the window up k words, each adding its carry
# into the next row's top word.
	.macro sgk_adx_sqr k
	sgk_adx_enter sgk_mont_sqr\k\()_adx, 16*\k+16
	movq %rdi, 16*\k(%rsp)
	movq %rsp, %rdi
	movq %rcx, %r8
	movq %rdx, %rcx
	xorl %ebx, %ebx
	sgk_adx_square \k
	xorl %r13d, %r13d
	leaq 8*\k(%rdi), %r15
	movq (%rdi), %r14
	.p2align 4
1:
	imulq %r8, %r14
	movq %r14, %rdx
	sgk_adx_row \k, %rcx, skip0=1, save=1
	adcxq 8*\k(%rdi), %r12
	adoxq %r13, %r12
	movq %r12, 8*\k(%rdi)
	movq %rbx, %r13
	adcxq %rbx, %r13
	adoxq %rbx, %r13
	leaq 8(%rdi), %rdi
	cmpq %r15, %rdi
	jne 1b
	sgk_adx_final \k
	sgk_adx_leave sgk_mont_sqr\k\()_adx, 16*\k+16
	.endm

# At 8 limbs the window fits in registers: t0 .. t9 below are a ring of ten
# (%rdi, %rbp, %r8 .. %r15), renamed one place per reduction, which zeroes
# t0; that register is the next round's t9. 0, 8 and 24(%rsp) hold a zero
# word, n0_inv and out; 16(%rsp) holds b (product) or n (squaring), and the
# squaring keeps words 8 .. 15 of a^2 at 32 .. 88(%rsp). A row adds rdx * src
# into t0 .. t8: each low half on the ADOX chain into t[j], each high half on
# the ADCX chain into t[j+1], with %rax:%rbx as the product.
	.macro sgk_adx8_step j, src, lo, hi
	mulxq 8*\j(\src), %rax, %rbx
	adoxq %rax, \lo
	adcxq %rbx, \hi
	.endm

	.macro sgk_adx8_row src, t0, t1, t2, t3, t4, t5, t6, t7, t8
	xorl %eax, %eax
	sgk_adx8_step 0, \src, \t0, \t1
	sgk_adx8_step 1, \src, \t1, \t2
	sgk_adx8_step 2, \src, \t2, \t3
	sgk_adx8_step 3, \src, \t3, \t4
	sgk_adx8_step 4, \src, \t4, \t5
	sgk_adx8_step 5, \src, \t5, \t6
	sgk_adx8_step 6, \src, \t6, \t7
	sgk_adx8_step 7, \src, \t7, \t8
	.endm

# Reduction round: m = t0 * n0_inv, t += m * n (t0 becomes 0, and serves as
# the zero that settles both chains' carries into t8 and t9).
	.macro sgk_adx8_redc t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
	movq \t0, %rdx
	imulq 8(%rsp), %rdx
	sgk_adx8_row %rcx, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
	adoxq \t0, \t8
	adcxq \t0, \t9
	adoxq \t0, \t9
	.endm

# Final subtraction at 8 limbs, for the result t1 .. t8 with carry word t9:
# the result is stored to out, then t1 .. t8 become result - n on one borrow
# chain that ends in t9, CMOV reloads the stored word where that borrows, and
# t1 .. t8 are stored again.
	.macro sgk_adx8_final t1, t2, t3, t4, t5, t6, t7, t8, t9
	movq 24(%rsp), %rax
	.set .Lsgk_j, 0
	.irp limb, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
	movq \limb, 8*.Lsgk_j(%rax)
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	subq (%rcx), \t1
	.set .Lsgk_j, 1
	.irp limb, \t2, \t3, \t4, \t5, \t6, \t7, \t8
	sbbq 8*.Lsgk_j(%rcx), \limb
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	sbbq $0, \t9
	.set .Lsgk_j, 0
	.irp limb, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
	cmovcq 8*.Lsgk_j(%rax), \limb
	movq \limb, 8*.Lsgk_j(%rax)
	.set .Lsgk_j, .Lsgk_j + 1
	.endr
	.endm

# Rounds i .. 7 on the ring t0 .. t9 (t9 = 0 on entry); mul: t += a * b[i]
# first. The result is t1 .. t8 of the last round plus its carry word t9,
# to which the squaring adds its high half before the final subtraction.
	.macro sgk_adx8_rounds mul, i, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9
	.if \mul
	movq 16(%rsp), %rdx
	movq 8*\i(%rdx), %rdx
	sgk_adx8_row %rsi, \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8
	adoxq \t9, \t8
	adcxq \t9, \t9
	adoxq (%rsp), \t9
	.endif
	sgk_adx8_redc \t0, \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
	.if \i < 7
	sgk_adx8_rounds \mul, (\i+1), \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9, \t0
	.else
	.if \mul == 0
	addq 32(%rsp), \t1
	adcq 40(%rsp), \t2
	adcq 48(%rsp), \t3
	adcq 56(%rsp), \t4
	adcq 64(%rsp), \t5
	adcq 72(%rsp), \t6
	adcq 80(%rsp), \t7
	adcq 88(%rsp), \t8
	adcq $0, \t9
	.endif
	sgk_adx8_final \t1, \t2, \t3, \t4, \t5, \t6, \t7, \t8, \t9
	.endif
	.endm

# sgk_mont_mul8_adx: eight rounds of a * b[i] then m * n, on a zeroed ring.
	sgk_adx_enter sgk_mont_mul8_adx, 32
	movq $0, (%rsp)
	movq %r8, 8(%rsp)
	movq %rdx, 16(%rsp)
	movq %rdi, 24(%rsp)
	.irp reg, %edi, %ebp, %r8d, %r9d, %r10d, %r11d, %r12d, %r13d, %r14d, %r15d
	xorl \reg, \reg
	.endr
	sgk_adx8_rounds 1, 0, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sgk_adx_leave sgk_mont_mul8_adx, 32

# The 8-limb squaring, in registers. Row i of the triangle adds a[i] *
# a[i+1 .. 8) into the words 2i + 1 .. i + 7 and writes the new top word
# i + 8, which takes both chains' last carries (the rows so far sum to less
# than 2^(64(i+9)), so none passes it). A row's words are registers: the
# low halves go on the ADOX chain into the first, the high halves on the
# ADCX chain into the next. Words 1 .. 7 stay in t1 .. t7 of the reduction
# ring; words 8 .. 14 take turns in %rdi, %r14, %r15 and %rcx (t0, t8, t9
# and the spilled n), and words 8 .. 12 go to the stack once no later row
# adds to them.
	.macro sgk_sqr8_steps j, lo, hi, rest:vararg
	.if \j == 7
	mulxq 56(%rsi), %rax, \hi
	adoxq %rax, \lo
	adcxq (%rsp), \hi
	adoxq (%rsp), \hi
	.else
	mulxq 8*\j(%rsi), %rax, %rbx
	adoxq %rax, \lo
	adcxq %rbx, \hi
	sgk_sqr8_steps (\j+1), \hi, \rest
	.endif
	.endm

	.macro sgk_sqr8_row i, words:vararg
	movq 8*\i(%rsi), %rdx
	xorl %eax, %eax
	sgk_sqr8_steps (\i+1), \words
	.endm

# One word of a^2 in the doubling pass: the cross word in reg doubled on the
# ADCX chain, plus half of a[i]^2 on the ADOX chain.
	.macro sgk_sqr8_double reg, half
	adcxq \reg, \reg
	adoxq \half, \reg
	.endm

# The same for a cross word kept on the stack, through %rcx.
	.macro sgk_sqr8_double_spilled slot, half
	movq \slot, %rcx
	sgk_sqr8_double %rcx, \half
	movq %rcx, \slot
	.endm

# sgk_mont_sqr8_adx: the triangle, then the doubling pass leaves words
# 0 .. 7 of a^2 in t0 .. t7 and words 8 .. 15 at 32 .. 88(%rsp); eight
# rounds of m * n reduce the low half, the high half is added, and the
# final subtraction stores out.
	sgk_adx_enter sgk_mont_sqr8_adx, 96
	movq $0, (%rsp)
	movq %rcx, 8(%rsp)
	movq %rdx, 16(%rsp)
	movq %rdi, 24(%rsp)
	movq (%rsi), %rdx
	mulxq 8(%rsi), %rbp, %r8
	mulxq 16(%rsi), %rax, %r9
	addq %rax, %r8
	mulxq 24(%rsi), %rax, %r10
	adcq %rax, %r9
	mulxq 32(%rsi), %rax, %r11
	adcq %rax, %r10
	mulxq 40(%rsi), %rax, %r12
	adcq %rax, %r11
	mulxq 48(%rsi), %rax, %r13
	adcq %rax, %r12
	mulxq 56(%rsi), %rax, %rdi
	adcq %rax, %r13
	adcq $0, %rdi
	sgk_sqr8_row 1, %r9, %r10, %r11, %r12, %r13, %rdi, %r14
	sgk_sqr8_row 2, %r11, %r12, %r13, %rdi, %r14, %r15
	sgk_sqr8_row 3, %r13, %rdi, %r14, %r15, %rcx
	movq %rdi, 32(%rsp)
	sgk_sqr8_row 4, %r14, %r15, %rcx, %rdi
	movq %r14, 40(%rsp)
	movq %r15, 48(%rsp)
	sgk_sqr8_row 5, %rcx, %rdi, %r14
	movq %rcx, 56(%rsp)
	movq %rdi, 64(%rsp)
	sgk_sqr8_row 6, %r14, %r15
	xorl %ebx, %ebx
	movq (%rsi), %rdx
	mulxq %rdx, %rdi, %rax
	sgk_sqr8_double %rbp, %rax
	movq 8(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double %r8, %rax
	sgk_sqr8_double %r9, %rbx
	movq 16(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double %r10, %rax
	sgk_sqr8_double %r11, %rbx
	movq 24(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double %r12, %rax
	sgk_sqr8_double %r13, %rbx
	movq 32(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double_spilled 32(%rsp), %rax
	sgk_sqr8_double_spilled 40(%rsp), %rbx
	movq 40(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double_spilled 48(%rsp), %rax
	sgk_sqr8_double_spilled 56(%rsp), %rbx
	movq 48(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double_spilled 64(%rsp), %rax
	sgk_sqr8_double %r14, %rbx
	movq 56(%rsi), %rdx
	mulxq %rdx, %rax, %rbx
	sgk_sqr8_double %r15, %rax
	movl $0, %ecx
	sgk_sqr8_double %rcx, %rbx
	movq %r14, 72(%rsp)
	movq %r15, 80(%rsp)
	movq %rcx, 88(%rsp)
	xorl %r14d, %r14d
	xorl %r15d, %r15d
	movq 16(%rsp), %rcx
	sgk_adx8_rounds 0, 0, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sgk_adx_leave sgk_mont_sqr8_adx, 96

	sgk_adx_mul 16
	sgk_adx_sqr 16

	.purgem sgk_adx_step
	.purgem sgk_adx_row
	.purgem sgk_adx_enter
	.purgem sgk_adx_leave
	.purgem sgk_adx_final
	.purgem sgk_adx_mul
	.purgem sgk_adx_square
	.purgem sgk_adx_sqr
	.purgem sgk_adx8_step
	.purgem sgk_adx8_row
	.purgem sgk_adx8_redc
	.purgem sgk_adx8_final
	.purgem sgk_adx8_rounds
	.purgem sgk_sqr8_steps
	.purgem sgk_sqr8_row
	.purgem sgk_sqr8_double
	.purgem sgk_sqr8_double_spilled
	.popsection
)");
#endif
