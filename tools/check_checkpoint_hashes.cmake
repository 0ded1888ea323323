# Checkpoint images must stay byte-identical: the SHA-256 of the
# checkpoint= file of each case below is compared against
# tools/goldens/checkpoint_<case>.sha256. `detailed` is a detailed
# SpMV run. `sampled` is a sampled run whose short interval resets
# the core's timing several times and ends inside a truncated
# detailed window, so the commit front the machine section records
# lies above the core's last commit tick.
#
# The images are written to OUT_DIR and removed after hashing; the
# goldens are never rewritten by this script. Run without VIA_CHECK
# (the sampled-mode audit does not touch the image, but its input is
# too small for the audit's accuracy bound).
#
# Inputs: -DVIA_SIM=<path> -DGOLDEN_DIR=<tools/goldens>
#         -DOUT_DIR=<dir for the images>

set(common_args spmv rows=256 density=0.03 seed=3 format=csb)
set(detailed_args)
set(sampled_args mode=sampled sample_interval=300 sample_warmup=30
    sample_measure=100)

unset(ENV{VIA_CHECK})
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")

foreach(case detailed sampled)
    set(image "${OUT_DIR}/checkpoint_${case}.ckpt")
    file(REMOVE "${image}")
    execute_process(COMMAND ${VIA_SIM} ${common_args} ${${case}_args}
                            checkpoint=${image}
                    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    set(golden "${GOLDEN_DIR}/checkpoint_${case}.sha256")
    if(NOT rc EQUAL 0 OR NOT EXISTS "${image}")
        list(APPEND failed "${case} (exit ${rc})")
    elseif(NOT EXISTS "${golden}")
        list(APPEND failed "${case} (no golden)")
    else()
        file(SHA256 "${image}" got)
        file(STRINGS "${golden}" want LIMIT_COUNT 1)
        if(NOT got STREQUAL want)
            list(APPEND failed "${case} (sha256 ${got})")
        endif()
    endif()
    file(REMOVE "${image}")
endforeach()

if(failed)
    message(FATAL_ERROR "checkpoint bytes differ from the goldens: "
                        "${failed}")
endif()
message(STATUS "checkpoint images byte-identical to the goldens")
