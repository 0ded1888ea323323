/**
 * @file
 * Build MachineParams from key=value configuration, so every
 * harness and the CLI expose the same sweep knobs.
 *
 * Recognized keys (all optional):
 *   sspm_kb, ports, cam_kb, cam_bank      — VIA hardware
 *   rob, dispatch, commit, lq, sq         — core window/widths
 *   l1_kb, l2_kb, l1_lat, l2_lat, mshrs   — caches
 *   dram_lat, dram_bw                     — memory (cycles, B/cyc)
 *   prefetch                              — L2 next-N-line degree
 *   gather_overhead, gather_ports         — indexed-access cost
 *   mispredict, store_forward             — penalty model
 *   via_at_commit                         — strict §IV-E reading
 *   backend                               — base|via|ssr|indexmac
 *   ssr_streams, ssr_setup                — SSR backend knobs
 *   imac_rows, imac_overhead              — IndexMAC backend knobs
 */

#ifndef VIA_CPU_MACHINE_CONFIG_HH
#define VIA_CPU_MACHINE_CONFIG_HH

#include "cpu/core_params.hh"
#include "mem/shared_llc.hh"
#include "simcore/config.hh"
#include "simcore/options.hh"

namespace via
{

/**
 * Largest ports= value: the FIVU books its SSPM ports through a
 * Resource, whose per-cycle slots hold fewer than 0x10000 units.
 */
inline constexpr std::uint64_t MAX_SSPM_PORTS = 0xffff;

/**
 * Largest sspm_kb= value: VIA addresses the direct-mapped SSPM with
 * 32-bit index lanes, which reach at most 2^31 entries of
 * ViaConfig::valueBytes (4) bytes each, i.e. 8 GiB.
 */
inline constexpr std::uint64_t MAX_SSPM_KB =
    (std::uint64_t(1) << 31) * 4 / 1024;

/**
 * Largest cam_kb= value: the CAM index table counts its entries
 * (ViaConfig::keyBytes, 4 bytes each) in a std::uint32_t. sspm_kb=
 * caps the CAM lower still; MAX_CAM_KB only keeps the KB-to-byte
 * product from wrapping before that check runs.
 */
inline constexpr std::uint64_t MAX_CAM_KB =
    std::uint64_t(0xffffffffu) * 4 / 1024;

/**
 * Table I defaults overridden by whatever @p cfg carries. A cam_kb=
 * larger than sspm_kb= is a usage error (exit 2).
 */
MachineParams machineParamsFrom(const Config &cfg);

/**
 * Register every machineParamsFrom key with an Options registry —
 * defaults mirror the Table I machine so the generated help table
 * shows what each knob resolves to when omitted.
 */
void addMachineOptions(Options &opts);

/**
 * Register the multi-core keys (cores=, partition=, llc_banks=)
 * with the harnesses that implement a cores>1 path. Kept separate
 * from addMachineOptions so a harness without a multi-core mode
 * rejects cores= as an unknown key instead of silently running
 * single-core.
 */
void addMultiCoreOptions(Options &opts);

/**
 * Shared-LLC parameters for a cores>1 run: the private hierarchy's
 * last level scaled by the core count (SharedLlcParams::from), with
 * the llc_banks= override applied.
 */
SharedLlcParams sharedLlcParamsFrom(const Config &cfg,
                                    const MachineParams &params,
                                    unsigned cores);

} // namespace via

#endif // VIA_CPU_MACHINE_CONFIG_HH
