#include "bignum/montgomery_adx.h"

#include <atomic>

#if defined(__x86_64__) && defined(__ELF__)
#include <cpuid.h>
#endif

namespace sgk::adx {

namespace {
std::atomic<int> portable_for_testing{0};

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
  return cpu && portable_for_testing.load(std::memory_order_relaxed) == 0;
}

PortableKernelForTesting::PortableKernelForTesting() { ++portable_for_testing; }
PortableKernelForTesting::~PortableKernelForTesting() { --portable_for_testing; }

}  // namespace sgk::adx

#if defined(__x86_64__) && defined(__ELF__)
// The routines, in AT&T syntax. At 16 limbs the accumulator window lives in
// z and each row streams through it; register use there (and in the 8-limb
// squaring's first phase):
//   %rdi  accumulator window: word 0 is the row's lowest word; it moves up
//         one word per reduction, so the result ends at z + k
//   %rsi  a            %rcx  n            %r9   b (product only)
//   %r8   n0_inv       %rdx  the row's multiplier (MULX's implicit operand)
//   %rbx  zero         %r13  carry word above the window
//   %r14  the word the next reduction multiplier m = word * n0_inv is
//         taken from          %r15  loop end
//   %rax:%r10, %r11:%r12  low:high halves of the even and odd steps' products
// At 8 limbs the window lives in registers instead (see sgk_adx8_row). In
// every routine a row's two carry chains never cross an instruction that
// writes flags (IMUL, CMP and XOR sit between rows), and every loop runs k
// times.
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

# Entry and exit: saves the callee-saved registers and reserves four stack
# words (read as 0(%rsp) .. 24(%rsp) by the 8-limb routines).
	.macro sgk_adx_enter name
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
	subq $32, %rsp
	.cfi_adjust_cfa_offset 32
	.endm

	.macro sgk_adx_leave name
	addq $32, %rsp
	.cfi_adjust_cfa_offset -32
	.irp reg, %r15, %r14, %r13, %r12, %rbp, %rbx
	popq \reg
	.cfi_adjust_cfa_offset -8
	.cfi_restore \reg
	.endr
	ret
	.cfi_endproc
	.size \name, . - \name
	.endm

# u64 sgk_mont_mul<k>_adx(u64* z, const u64* a, const u64* b, const u64* n,
#                         u64 n0_inv): for each b[i], a row adds a * b[i]
# into the window, then a reduction row adds m * n, which zeroes word 0, and
# the window moves up a word.
	.macro sgk_adx_mul k
	sgk_adx_enter sgk_mont_mul\k\()_adx
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
	movq %r13, %rax
	sgk_adx_leave sgk_mont_mul\k\()_adx
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

# u64 sgk_mont_sqr<k>_adx(u64* z, const u64* a, const u64* n, u64 n0_inv):
# a^2 into z[0 .. 2k), then k reduction rows m * n move the window up to
# z + k, each adding its carry into the next row's top word.
	.macro sgk_adx_sqr k
	sgk_adx_enter sgk_mont_sqr\k\()_adx
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
	movq %r13, %rax
	sgk_adx_leave sgk_mont_sqr\k\()_adx
	.endm

# At 8 limbs the window fits in registers: t0 .. t9 below are a ring of ten
# (%rdi, %rbp, %r8 .. %r15), renamed one place per reduction, which zeroes
# t0; that register is the next round's t9. 0, 8, 16 and 24(%rsp) hold a
# zero word, n0_inv, b and z. A row adds rdx * src into t0 .. t8: each low
# half on the ADOX chain into t[j], each high half on the ADCX chain into
# t[j+1], with %rax:%rbx as the product.
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

# Rounds i .. 7 on the ring t0 .. t9 (t9 = 0 on entry); mul: t += a * b[i]
# first. The result is t1 .. t8 of the last round plus its carry word t9.
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
	movq 24(%rsp), %rax
	.if \mul == 0
	addq 64(%rax), \t1
	adcq 72(%rax), \t2
	adcq 80(%rax), \t3
	adcq 88(%rax), \t4
	adcq 96(%rax), \t5
	adcq 104(%rax), \t6
	adcq 112(%rax), \t7
	adcq 120(%rax), \t8
	adcq $0, \t9
	.endif
	movq \t1, 64(%rax)
	movq \t2, 72(%rax)
	movq \t3, 80(%rax)
	movq \t4, 88(%rax)
	movq \t5, 96(%rax)
	movq \t6, 104(%rax)
	movq \t7, 112(%rax)
	movq \t8, 120(%rax)
	movq \t9, %rax
	.endif
	.endm

# sgk_mont_mul8_adx: eight rounds of a * b[i] then m * n, on a zeroed ring.
	sgk_adx_enter sgk_mont_mul8_adx
	movq $0, (%rsp)
	movq %r8, 8(%rsp)
	movq %rdx, 16(%rsp)
	movq %rdi, 24(%rsp)
	.irp reg, %edi, %ebp, %r8d, %r9d, %r10d, %r11d, %r12d, %r13d, %r14d, %r15d
	xorl \reg, \reg
	.endr
	sgk_adx8_rounds 1, 0, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sgk_adx_leave sgk_mont_mul8_adx

# sgk_mont_sqr8_adx: a^2 into z, eight rounds of m * n on its low half in
# the ring, then its high half added.
	sgk_adx_enter sgk_mont_sqr8_adx
	movq %rcx, 8(%rsp)
	movq %rdi, 24(%rsp)
	movq %rdx, %rcx
	xorl %ebx, %ebx
	sgk_adx_square 8
	movq %rdi, %rax
	movq 0(%rax), %rdi
	movq 8(%rax), %rbp
	movq 16(%rax), %r8
	movq 24(%rax), %r9
	movq 32(%rax), %r10
	movq 40(%rax), %r11
	movq 48(%rax), %r12
	movq 56(%rax), %r13
	xorl %r14d, %r14d
	xorl %r15d, %r15d
	sgk_adx8_rounds 0, 0, %rdi, %rbp, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
	sgk_adx_leave sgk_mont_sqr8_adx

	sgk_adx_mul 16
	sgk_adx_sqr 16

	.purgem sgk_adx_step
	.purgem sgk_adx_row
	.purgem sgk_adx_enter
	.purgem sgk_adx_leave
	.purgem sgk_adx_mul
	.purgem sgk_adx_square
	.purgem sgk_adx_sqr
	.purgem sgk_adx8_step
	.purgem sgk_adx8_row
	.purgem sgk_adx8_redc
	.purgem sgk_adx8_rounds
	.popsection
)");
#endif
