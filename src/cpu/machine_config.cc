#include "cpu/machine_config.hh"

#include "simcore/log.hh"

namespace via
{

MachineParams
machineParamsFrom(const Config &cfg)
{
    MachineParams p;

    p.via = ViaConfig::make(
        cfg.getUInt("sspm_kb", 16),
        std::uint32_t(cfg.getUInt("ports", 2)));
    if (cfg.has("cam_kb")) {
        p.via.camBytes = cfg.getUInt("cam_kb", 4) * 1024;
        // The CAM tracks SSPM entries: it cannot hold more of them
        // than the SRAM has.
        if (p.via.camEntries() > p.via.sramEntries())
            via_usage("cam_kb=", p.via.camBytes / 1024,
                      " exceeds sspm_kb=", p.via.sspmBytes / 1024,
                      " (the CAM cannot track more entries than the "
                      "SSPM holds)");
    }
    p.via.bankEntries =
        std::uint32_t(cfg.getUInt("cam_bank", p.via.bankEntries));

    std::string be = cfg.getString("backend", "via");
    if (!parseBackendKind(be, p.backend.kind))
        via_fatal("unknown backend '", be,
                  "' (expected base|via|ssr|indexmac)");
    p.backend.ssrStreams = std::uint32_t(
        cfg.getUInt("ssr_streams", p.backend.ssrStreams));
    p.backend.imacRows = std::uint32_t(
        cfg.getUInt("imac_rows", p.backend.imacRows));

    CoreParams &core = p.core;
    core.robSize = std::uint32_t(cfg.getUInt("rob", core.robSize));
    core.dispatchWidth = std::uint32_t(
        cfg.getUInt("dispatch", core.dispatchWidth));
    core.commitWidth =
        std::uint32_t(cfg.getUInt("commit", core.commitWidth));
    core.lqEntries =
        std::uint32_t(cfg.getUInt("lq", core.lqEntries));
    core.sqEntries =
        std::uint32_t(cfg.getUInt("sq", core.sqEntries));
    core.viaAtCommit = cfg.getBool("via_at_commit",
                                   core.viaAtCommit);

    OpLatencies &lat = core.latencies;
    lat.gatherOverhead =
        cfg.getUInt("gather_overhead", lat.gatherOverhead);
    lat.gatherPortFactor =
        cfg.getUInt("gather_ports", lat.gatherPortFactor);
    lat.mispredictPenalty =
        cfg.getUInt("mispredict", lat.mispredictPenalty);
    lat.storeForwardPenalty =
        cfg.getUInt("store_forward", lat.storeForwardPenalty);
    lat.ssrSetup = cfg.getUInt("ssr_setup", lat.ssrSetup);
    lat.imacOverhead =
        cfg.getUInt("imac_overhead", lat.imacOverhead);

    MemSystemParams &mem = p.mem;
    if (cfg.has("l1_kb"))
        mem.levels[0].sizeBytes = cfg.getUInt("l1_kb", 32) * 1024;
    if (cfg.has("l2_kb"))
        mem.levels[1].sizeBytes = cfg.getUInt("l2_kb", 1024) * 1024;
    mem.levels[0].hitLatency =
        cfg.getUInt("l1_lat", mem.levels[0].hitLatency);
    mem.levels[1].hitLatency =
        cfg.getUInt("l2_lat", mem.levels[1].hitLatency);
    if (cfg.has("mshrs")) {
        mem.levels[0].mshrs =
            std::uint32_t(cfg.getUInt("mshrs", 16));
        mem.levels[1].mshrs = 2 * mem.levels[0].mshrs;
    }
    mem.dram.latency = cfg.getUInt("dram_lat", mem.dram.latency);
    mem.dram.bytesPerCycle =
        cfg.getDouble("dram_bw", mem.dram.bytesPerCycle);
    mem.prefetch.degree = std::uint32_t(
        cfg.getUInt("prefetch", mem.prefetch.degree));

    return p;
}

void
addMachineOptions(Options &opts)
{
    // Defaults below are what machineParamsFrom resolves each key to
    // when it is omitted; pull them from the default structs so the
    // help table cannot drift from the model.
    MachineParams d;
    d.via = ViaConfig::make(16, 2);
    const CoreParams &core = d.core;
    const OpLatencies &lat = core.latencies;
    const MemSystemParams &mem = d.mem;

    opts.addUInt("sspm_kb", 16, "VIA scratchpad (SSPM) size in KB",
                 1, MAX_SSPM_KB)
        .addUInt("ports", 2, "SSPM ports (element moves per cycle)",
                 1, MAX_SSPM_PORTS)
        .addUInt("cam_kb", d.via.camBytes / 1024,
                 "VIA CAM capacity in KB (at most sspm_kb)", 1,
                 MAX_CAM_KB)
        .addUInt("cam_bank", d.via.bankEntries,
                 "CAM entries compared per bank access", 1)
        .addUInt("rob", core.robSize, "reorder-buffer entries", 1)
        .addUInt("dispatch", core.dispatchWidth,
                 "instructions dispatched per cycle", 1)
        .addUInt("commit", core.commitWidth,
                 "instructions committed per cycle", 1)
        .addUInt("lq", core.lqEntries, "load-queue entries", 1)
        .addUInt("sq", core.sqEntries, "store-queue entries", 1)
        .addBool("via_at_commit", core.viaAtCommit,
                 "strict commit-time VIA execution (Section IV-E)")
        .addString("backend", "via",
                   "vector backend: base|via|ssr|indexmac")
        .addUInt("ssr_streams", d.backend.ssrStreams,
                 "SSR architected stream registers", 1, 32)
        .addUInt("imac_rows", d.backend.imacRows,
                 "IndexMAC row-buffer entries", 1, 64)
        .addUInt("ssr_setup", lat.ssrSetup,
                 "SSR stream bind (ssr.cfg) cycles", 1)
        .addUInt("imac_overhead", lat.imacOverhead,
                 "indexed-MAC macro-op issue overhead cycles", 1)
        .addUInt("gather_overhead", lat.gatherOverhead,
                 "fixed gather/scatter startup cycles")
        .addUInt("gather_ports", lat.gatherPortFactor,
                 "L1 port cycles per gathered element", 1)
        .addUInt("mispredict", lat.mispredictPenalty,
                 "branch mispredict refill cycles")
        .addUInt("store_forward", lat.storeForwardPenalty,
                 "store-to-load forwarding replay cycles")
        .addUInt("l1_kb", mem.levels[0].sizeBytes / 1024,
                 "L1D capacity in KB", 1)
        .addUInt("l2_kb", mem.levels[1].sizeBytes / 1024,
                 "L2 capacity in KB", 1)
        .addUInt("l1_lat", mem.levels[0].hitLatency,
                 "L1D hit latency in cycles", 1)
        .addUInt("l2_lat", mem.levels[1].hitLatency,
                 "L2 hit latency in cycles", 1)
        .addUInt("mshrs", mem.levels[0].mshrs,
                 "L1 MSHRs (L2 gets twice as many)", 1)
        .addUInt("dram_lat", mem.dram.latency,
                 "DRAM access latency in cycles", 1)
        .addDouble("dram_bw", mem.dram.bytesPerCycle,
                   "DRAM bandwidth in bytes per core cycle", 0.001)
        .addUInt("prefetch", mem.prefetch.degree,
                 "L2 next-N-line prefetch degree", 0, 64);
}

void
addMultiCoreOptions(Options &opts)
{
    SharedLlcParams d;
    opts.addUInt("cores", 1,
                 "number of cores (1 = the bit-identical "
                 "single-core machine)",
                 1, 32)
        .addString("partition", "static",
                   "multi-core work partitioning: static|steal")
        .addUInt("llc_banks", d.banks,
                 "shared-LLC bank pipes (cores>1)", 1, 64);
}

SharedLlcParams
sharedLlcParamsFrom(const Config &cfg, const MachineParams &params,
                    unsigned cores)
{
    SharedLlcParams llc = SharedLlcParams::from(params.mem, cores);
    llc.banks = std::uint32_t(cfg.getUInt("llc_banks", llc.banks));
    return llc;
}

} // namespace via
