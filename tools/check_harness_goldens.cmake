# The harness front ends must print the same bytes for every kernel
# on every path they offer: via_sim's detailed comparison on each
# backend, mode=functional and mode=sampled, the sweep=1 table
# (including a point skipped because a row exceeds the CAM), via_db's
# target/result/final lines at cores=1 and cores=2, and both key
# tables (help=1), which pin that no option was added or lost. Each
# case's stdout is compared byte for byte against
# tools/goldens/harness_<case>.golden.
#
# Every case's actual stdout is also written to OUT_DIR, so a
# mismatch can be inspected with diff; the goldens themselves are
# never rewritten by this script. Run it without VIA_CHECK: these
# inputs are too small for the sampled-mode accuracy audit, which
# via_sim_sampled_audit covers on its own input.
#
# Inputs: -DVIA_SIM=<path> -DVIA_DB=<path> -DGOLDEN_DIR=<tools/goldens>
#         -DDBG_DIR=<tools/dbg> -DOUT_DIR=<dir for actual outputs>

set(kernels spmv spma spmm histogram stencil)
set(spmv_args rows=256 density=0.03 seed=3 format=csb)
set(spma_args rows=96 density=0.04 seed=2)
set(spmm_args rows=64 density=0.06 seed=3)
set(histogram_args keys=2000 buckets=512 seed=5)
set(stencil_args px=48 seed=6)
set(sample_args sample_interval=1000 sample_warmup=100
    sample_measure=300)
set(sweep_args sweep=1 sweep_kb=1,16 sweep_ports=2 threads=2)

unset(ENV{VIA_CHECK})
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")

function(check_case name)
    execute_process(COMMAND ${ARGN}
                    OUTPUT_VARIABLE out ERROR_QUIET
                    RESULT_VARIABLE rc)
    file(WRITE "${OUT_DIR}/harness_${name}.out" "${out}")
    set(golden "${GOLDEN_DIR}/harness_${name}.golden")
    if(NOT rc EQUAL 0)
        list(APPEND failed "${name} (exit ${rc})")
    elseif(NOT EXISTS "${golden}")
        list(APPEND failed "${name} (no golden)")
    else()
        file(READ "${golden}" want)
        if(NOT out STREQUAL want)
            list(APPEND failed "${name}")
        endif()
    endif()
    set(failed "${failed}" PARENT_SCOPE)
endfunction()

foreach(k ${kernels})
    foreach(backend base via ssr indexmac)
        check_case(${k}_${backend} ${VIA_SIM} ${k} ${${k}_args}
                   backend=${backend} json=1)
    endforeach()
    check_case(${k}_functional ${VIA_SIM} ${k} ${${k}_args}
               mode=functional json=1)
    check_case(${k}_sampled ${VIA_SIM} ${k} ${${k}_args}
               mode=sampled ${sample_args} json=1)
    check_case(${k}_sweep ${VIA_SIM} ${k} ${${k}_args} ${sweep_args})
    foreach(cores 1 2)
        check_case(db_${k}_cores${cores} ${VIA_DB} kernel=${k}
                   ${${k}_args} cores=${cores}
                   script=${DBG_DIR}/run.dbg echo=0)
    endforeach()
endforeach()

# The other SpMV formats' labels and trace phases, and the
# SpMV-only IPC timeline.
foreach(fmt csr spc5 sell)
    check_case(spmv_${fmt}_via ${VIA_SIM} spmv rows=256 density=0.03
               seed=3 format=${fmt})
endforeach()
check_case(spmv_timeline ${VIA_SIM} spmv ${spmv_args} timeline=2000)

# Every synthetic family, the streaming generators, a Matrix Market
# input, and SpMM's 160-row synthetic default.
foreach(family banded rmat blocked diag)
    check_case(spmv_family_${family} ${VIA_SIM} spmv rows=256
               density=0.03 seed=3 family=${family} format=csr)
endforeach()
foreach(family banded rmat)
    check_case(spmv_stream_${family} ${VIA_SIM} spmv rows=512
               density=0.01 seed=3 family=${family} stream=1
               format=csr)
endforeach()
check_case(spmv_matrix ${VIA_SIM} spmv
           matrix=${CMAKE_CURRENT_LIST_DIR}/../examples/laplace2d_6x6.mtx)
check_case(spmm_rows_default ${VIA_SIM} spmm density=0.03 seed=3)
check_case(db_spmm_rows_default ${VIA_DB} kernel=spmm density=0.03
           seed=3 script=${DBG_DIR}/run.dbg echo=0)

# A dense SpMM input whose rows exceed the 1 KB point's CAM: that
# sweep point prints `skipped (exceeds CAM)`.
check_case(spmm_sweep_skip ${VIA_SIM} spmm rows=200 density=0.8
           ${sweep_args})

# via_db's stencil default (px=64) differs from via_sim's (256).
check_case(db_stencil_default ${VIA_DB} kernel=stencil seed=6
           script=${DBG_DIR}/run.dbg echo=0)

check_case(sim_help ${VIA_SIM} help=1)
check_case(db_help ${VIA_DB} help=1)

if(failed)
    message(FATAL_ERROR "harness output differs from the goldens "
                        "(actual output in ${OUT_DIR}): ${failed}")
endif()
message(STATUS "via_sim and via_db output byte-identical to the "
               "harness goldens")
