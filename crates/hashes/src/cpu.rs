//! The one place the crate asks the CPU what it has.
//!
//! Four kernels need instructions a build for any x86-64 level may not
//! assume: SHA-256 compressions on the x86 SHA extensions, and on AVX-512
//! F, DQ and BW the Merkle pair hash, the Bloom filter's mempool pass and
//! the sketch builds (the filter's and the IBLT's indexes, and
//! [`crate::siphash24_batch`] behind every other batch hash). Each is
//! reached only through a token, [`ShaNi`] or [`Avx512`], which only
//! [`Cpu::detect`] makes: holding one is the proof that the running CPU
//! has the features its kernels are compiled for, so every `unsafe` call
//! into a `#[target_feature]` kernel sits behind it. No build flag, feature
//! or setting picks a kernel; the tests call every kernel the host can run
//! by name, handing a kernel fewer tokens than [`Cpu::detect`] gives.

/// The kernels a host can run: a token for each set of instructions it
/// has. A `Cpu` with no token runs everything on the portable kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cpu {
    /// The x86 SHA extensions: every SHA-256 compression outside a full
    /// Merkle chunk.
    pub sha: Option<ShaNi>,
    /// AVX-512 F, DQ and BW: full Merkle chunks, the mempool pass, the
    /// sketch builds and every batch SipHash.
    pub avx512: Option<Avx512>,
}

impl Cpu {
    /// Every token the running CPU's CPUID earns. The standard library
    /// caches CPUID after the first query, so this is a few loads.
    #[inline]
    pub fn detect() -> Cpu {
        Cpu { sha: detect_sha(), avx512: detect_avx512() }
    }
}

/// Proof that the running CPU has the x86 SHA extensions and the SSE levels
/// the SHA-256 kernel uses beside them: only [`Cpu::detect`] makes one.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShaNi(());

/// Uninhabited off x86: there is no SHA-extension kernel.
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShaNi {}

/// Proof that the running CPU has AVX-512 F (the 512-bit integer
/// operations, rotates, compress, gather and masked stores), DQ (the
/// 64-bit multiply `vpmullq`) and BW (the byte shuffle of the Merkle pair
/// kernel). Every AVX-512 core since Skylake-SP has all three. Only
/// [`Cpu::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx512(());

/// Uninhabited off x86-64: there are no AVX-512 kernels.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Avx512 {}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn detect_sha() -> Option<ShaNi> {
    let has = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    has.then_some(ShaNi(()))
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
#[inline]
fn detect_sha() -> Option<ShaNi> {
    None
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn detect_avx512() -> Option<Avx512> {
    let has = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512bw");
    has.then_some(Avx512(()))
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn detect_avx512() -> Option<Avx512> {
    None
}
