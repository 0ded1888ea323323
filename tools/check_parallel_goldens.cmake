# The multi-core kernels must keep emitting the same per-core
# instruction streams: every label, cycle count and per-core JSON
# stat of a cores=2 (static) and a cores=4 (steal) run of each
# parallel kernel is compared byte for byte against a golden. The
# inputs give every core work: sspm_kb=1 leaves CSB several block
# rows per core, and buckets=600 exceeds the 256 SSPM entries so the
# bucket-tiled histogram path runs.
#
# Inputs: -DVIA_SIM=<path> -DGOLDEN_DIR=<tools/goldens>

set(spmv_csr_args spmv rows=384 density=0.02 seed=4 format=csr)
set(spmv_csb_args spmv rows=1024 density=0.01 seed=4 format=csb
    sspm_kb=1)
set(spma_args spma rows=192 density=0.04 seed=2 sspm_kb=1)
set(spmm_args spmm rows=96 density=0.05 seed=3)
set(histogram_args histogram keys=3000 buckets=600 seed=5 sspm_kb=1)
set(stencil_args stencil px=96 seed=6 sspm_kb=2)

set(failed "")
foreach(kernel spmv_csr spmv_csb spma spmm histogram stencil)
    foreach(run "2;static" "4;steal")
        list(GET run 0 cores)
        list(GET run 1 part)
        set(golden cores${cores}_${part}_${kernel}.golden)
        execute_process(COMMAND ${VIA_SIM} ${${kernel}_args}
                                cores=${cores} partition=${part}
                                json=1
                        OUTPUT_VARIABLE out RESULT_VARIABLE rc)
        file(READ "${GOLDEN_DIR}/${golden}" want)
        if(NOT rc EQUAL 0)
            list(APPEND failed "${golden} (exit ${rc})")
        elseif(NOT out STREQUAL want)
            list(APPEND failed "${golden}")
        endif()
    endforeach()
endforeach()

if(failed)
    message(FATAL_ERROR "multi-core output differs from: ${failed}")
endif()
message(STATUS "multi-core kernels byte-identical to the goldens")
