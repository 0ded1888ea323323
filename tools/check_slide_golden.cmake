# The Resource window-slide gate. Two cores share one DRAM pipe at
# dram_bw=2, so a lagging core books cycles below the pipe's window
# base and is clamped to it. Where that base sits depends on exactly
# when the window slides: a booking walk that slides at a different
# tick than the one-slot-at-a-time scan moves the base, and with it
# the cycle counts and the DRAM queue statistics printed here. The
# golden was captured from the linear-scan Resource.
#
# Inputs: -DVIA_SIM=<path> -DGOLDEN_DIR=<tools/goldens>

set(golden cores2_dram_bw2_spmv_csb.golden)
execute_process(COMMAND ${VIA_SIM} spmv format=csb rows=8192
                        density=0.005 cores=2 dram_bw=2 json=1
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "via_sim exited ${rc}")
endif()
file(READ "${GOLDEN_DIR}/${golden}" want)
if(NOT out STREQUAL want)
    message(FATAL_ERROR "output differs from ${golden}")
endif()
message(STATUS "window-slide run byte-identical to ${golden}")
