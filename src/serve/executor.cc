#include "serve/executor.hh"

#include <memory>

#include "kernels/dispatch.hh"
#include "power/energy_model.hh"
#include "sample/checkpoint.hh"
#include "simcore/log.hh"
#include "simcore/parallel.hh"
#include "sparse/dense.hh"

namespace via::serve
{

namespace
{

/** One class's warm state (single-core path). */
struct WarmState
{
    std::unique_ptr<kernels::SpmvResident> resident;
    sample::Checkpoint image;
    Tick cycles = 0;
    double energyPj = 0.0;
};

TableServiceModel
measureSingleCore(const std::vector<RequestClass> &mix,
                  const ExecutorConfig &cfg)
{
    SweepExecutor exec(cfg.threads);

    // Phase 1 — one warm machine per class: make the matrix
    // resident, run once, capture the image.
    auto warms = exec.run(mix.size(), [&](std::size_t i) {
        Machine m(cfg.params);
        Csr a = classMatrix(mix[i], i, cfg.seed);
        WarmState w;
        w.resident = std::make_unique<kernels::SpmvResident>(
            m, a, mix[i].format,
            cfg.via ? BackendKind::Via : BackendKind::Base);
        Rng rx(SweepExecutor::pointSeed(cfg.seed,
                                        mix.size() + i));
        w.resident->run(m, randomVector(a.cols(), rx));
        w.image = sample::Checkpoint::capture(m);
        w.cycles = m.cycles();
        w.energyPj = computeEnergy(m).totalPj();
        return w;
    });

    // Stage the images in the cache (single-threaded: the cache is
    // not synchronized). warm_dir routes them through disk so the
    // read-back path runs once per class; every batch restore below
    // is then served from memory.
    sample::CheckpointCache cache;
    std::vector<const sample::Checkpoint *> images(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        std::string key;
        if (!cfg.warmDir.empty()) {
            key = cfg.warmDir + "/warm_" + std::to_string(i) +
                  (cfg.via ? "_via" : "_base") + ".ckpt";
            warms[i].image.writeFile(key);
        } else {
            key = "warm:" + std::to_string(i);
            cache.put(key, warms[i].image.clone());
        }
        images[i] = &cache.get(key);
    }

    // Phase 2 — fan out (class x batch size): restore the warm
    // image onto a fresh machine, run the batch, take the marginal
    // cycles and energy.
    std::size_t points = mix.size() * cfg.batchMax;
    struct Point
    {
        Tick cost = 0;
        double energyPj = 0.0;
    };
    auto results = exec.run(points, [&](std::size_t p) {
        std::size_t cls = p / cfg.batchMax;
        unsigned n = unsigned(p % cfg.batchMax) + 1;
        const WarmState &w = warms[cls];

        Machine m(cfg.params);
        images[cls]->restore(m);

        Rng rx(SweepExecutor::pointSeed(cfg.seed,
                                        2 * mix.size() + p));
        Index cols = mix[cls].rows;
        for (unsigned r = 0; r < n; ++r)
            for (unsigned v = 0; v < mix[cls].vecs; ++v)
                w.resident->run(m, randomVector(cols, rx));

        Point pt;
        pt.cost = m.cycles() - w.cycles;
        pt.energyPj = computeEnergy(m).totalPj() - w.energyPj;
        return pt;
    });

    TableServiceModel table(mix.size(), cfg.batchMax);
    for (std::size_t p = 0; p < points; ++p)
        table.set(p / cfg.batchMax,
                  unsigned(p % cfg.batchMax) + 1, results[p].cost,
                  results[p].energyPj);
    return table;
}

TableServiceModel
measureMultiCore(const std::vector<RequestClass> &mix,
                 const ExecutorConfig &cfg)
{
    for (const RequestClass &c : mix)
        if (c.format != "csr" && c.format != "csb")
            via_fatal("class ", c.name(), ": only csr and csb are "
                      "servable with cores > 1");

    SweepExecutor exec(cfg.threads);
    std::size_t points = mix.size() * cfg.batchMax;
    struct Point
    {
        Tick cost = 0;
        double energyPj = 0.0;
    };
    auto results = exec.run(points, [&](std::size_t p) {
        std::size_t cls = p / cfg.batchMax;
        unsigned n = unsigned(p % cfg.batchMax) + 1;
        const RequestClass &rc = mix[cls];

        MultiMachine mm(cfg.params, cfg.cores, cfg.llc);
        Csr a = classMatrix(rc, cls, cfg.seed);

        Rng rx(SweepExecutor::pointSeed(cfg.seed,
                                        2 * mix.size() + p));
        // Warm run (not part of the priced batch).
        kernels::spmvParallel(mm, a, randomVector(a.cols(), rx),
                              rc.format, cfg.partition, cfg.via);
        Tick warm_cycles = mm.cycles();
        double warm_energy = computeEnergyMulti(mm).totalPj();

        for (unsigned r = 0; r < n; ++r)
            for (unsigned v = 0; v < rc.vecs; ++v)
                kernels::spmvParallel(mm, a,
                                      randomVector(a.cols(), rx),
                                      rc.format, cfg.partition,
                                      cfg.via);

        Point pt;
        pt.cost = mm.cycles() - warm_cycles;
        pt.energyPj =
            computeEnergyMulti(mm).totalPj() - warm_energy;
        return pt;
    });

    TableServiceModel table(mix.size(), cfg.batchMax);
    for (std::size_t p = 0; p < points; ++p)
        table.set(p / cfg.batchMax,
                  unsigned(p % cfg.batchMax) + 1, results[p].cost,
                  results[p].energyPj);
    return table;
}

} // namespace

TableServiceModel
measureServiceTable(const std::vector<RequestClass> &mix,
                    const ExecutorConfig &cfg)
{
    via_assert(!mix.empty(), "empty traffic mix");
    via_assert(cfg.batchMax > 0, "batchMax must be > 0");
    if (cfg.cores > 1)
        return measureMultiCore(mix, cfg);
    return measureSingleCore(mix, cfg);
}

} // namespace via::serve
