/**
 * @file
 * via_db — interactive cycle-level debugger for the VIA simulator.
 *
 * Wraps one kernel run (the same kernels and inputs via_sim drives)
 * in a debug::DebugSession: set breakpoints on opcodes, watch
 * addresses / cache lines / CAM and SSPM pressure, step or run to a
 * cycle or instruction count, inspect ROB/LSQ/SSPM/CAM/cache state,
 * and save/load in-session checkpoints (rewind by deterministic
 * replay, byte-verified). See docs/debugger.md.
 *
 * Usage:
 *   via_db [key=value ...]            interactive (stdin commands)
 *   via_db script=session.dbg ...     scripted, deterministic output
 *
 * Keys:
 *   kernel=K        spmv|spma|spmm|histogram|stencil (default spmv)
 *   format=FMT      spmv format: csr|spc5|sell|csb   (default csb)
 *   mtx=/matrix=    Matrix Market input (else synthetic)
 *   rows=N density=D family=F seed=S  synthetic input (as via_sim)
 *   keys=N buckets=B px=N             histogram / stencil inputs
 *   script=PATH     read commands from PATH instead of stdin
 *   echo=0          suppress command echo in script mode
 *   cores=N         debug the parallel kernels on a MultiMachine
 *                   (backend=via only; checkpoints unsupported)
 *
 * The machine group (backend=, sspm_kb=, rob=, ...) matches every
 * other harness. The observer-based stop engine cannot perturb the
 * schedule, so a stopped-and-continued session prints a `final:`
 * line bit-identical to an uninterrupted run — CTest pins this.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "debug/session.hh"
#include "kernels/workload.hh"
#include "simcore/config.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"

using namespace via;

namespace
{

Options
dbOptions()
{
    Options opts("via_db",
                 "Interactive / scripted cycle-level debugger: run "
                 "one kernel under breakpoints, watchpoints, state "
                 "inspection and checkpoint rewind");
    opts.addString("kernel", "spmv",
                   "kernel to debug: "
                   "spmv|spma|spmm|histogram|stencil")
        .addString("script", "",
                   "command script (default: interactive stdin)")
        .addBool("echo", true, "echo script commands as they run")
        .addString("mtx", "",
                   "Matrix Market input (default: synthetic)")
        .addString("matrix", "", "alias for mtx=")
        .addUInt("rows", 512, "synthetic matrix dimension", 1)
        .addDoubleAbove("density", 0.01, "synthetic matrix density",
                        0.0, 1.0)
        .addString("family", "uniform",
                   "synthetic family: "
                   "banded|uniform|rmat|blocked|diag")
        .addUInt("seed", 1, "input generator seed")
        .addString("format", "csb",
                   "spmv sparse format: csr|spc5|sell|csb")
        .addUInt("keys", 16384, "histogram input size", 1)
        .addUInt("buckets", 1024, "histogram buckets", 1)
        .addUInt("px", 64, "stencil image side (4x4 filter)", 4);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    return opts;
}

/** A usage error: reported before the session starts. */
int
usage(const std::string &why)
{
    std::fprintf(stderr, "via_db: %s\n", why.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = dbOptions();
    opts.parse(argc, argv);
    const Config &cfg = opts.config();

    const std::string kernel = opts.getString("kernel");
    const auto cores = unsigned(cfg.getUInt("cores", 1));
    MachineParams params = machineParamsFrom(cfg);
    const kernels::Workload *w = kernels::findWorkload(kernel);
    if (!w)
        return usage("unknown kernel '" + kernel + "'");
    std::string bad = kernels::checkWorkloadKeys(*w, opts, params, cores);
    if (!bad.empty())
        return usage(bad);

    // The input and golden are built once here, so every rewind
    // replay re-runs the identical work.
    Rng rng(cfg.getUInt("seed", 1));
    auto in = std::make_shared<const kernels::WorkloadInput>(
        w->build(opts, rng));
    if (auto misfit = in->fit(params))
        return usage(misfit->why);
    std::printf("target: %s%s, %s\n", w->name, in->tag().c_str(),
                in->shape.c_str());
    const auto part = kernels::parsePartition(opts.getString("partition"));
    debug::KernelFn kfn = [in, part, cores](debug::DebugTarget &t) {
        return (cores > 1 ? in->parallel(*t.multi, part, true)
                          : in->accel(*t.machine))
            .ok;
    };

    debug::TargetFactory factory;
    if (cores > 1) {
        SharedLlcParams llcp =
            sharedLlcParamsFrom(cfg, params, cores);
        factory = [params, cores, llcp] {
            debug::DebugTarget t;
            t.multi = std::make_unique<MultiMachine>(params, cores,
                                                     llcp);
            return t;
        };
    } else {
        factory = [params] {
            debug::DebugTarget t;
            t.machine = std::make_unique<Machine>(params);
            return t;
        };
    }

    const std::string script = opts.getString("script");
    std::ifstream script_in;
    debug::SessionConfig scfg;
    if (!script.empty()) {
        script_in.open(script);
        if (!script_in)
            via_fatal("cannot open script '", script, "'");
        scfg.commands = &script_in;
        scfg.echo = cfg.getBool("echo", true);
        scfg.prompt = false;
    } else {
        scfg.commands = &std::cin;
        scfg.echo = false;
        scfg.prompt = true;
    }
    scfg.out = &std::cout;

    debug::DebugSession session(std::move(factory), std::move(kfn),
                                scfg);
    return session.run();
}
