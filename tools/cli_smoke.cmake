# End-to-end smoke test of the `cnd` CLI:
# gen -> run -> score -> snapshot -> restore --explain.
# Invoked by ctest with -DCND_BIN=<path-to-binary>.
if(NOT DEFINED CND_BIN)
  message(FATAL_ERROR "CND_BIN not set")
endif()

set(work "${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_work")
file(MAKE_DIRECTORY "${work}")
set(csv "${work}/smoke.csv")
set(artifact "${work}/smoke_artifact.bin")
set(truncated "${work}/smoke_truncated.bin")

function(run_step want_rc)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "step exited ${rc}, want ${want_rc}: ${ARGN}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

function(expect_output needle)
  string(FIND "${last_out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "output missing '${needle}':\n${last_out}")
  endif()
endfunction()

run_step(0 "${CND_BIN}" gen --dataset=wustl_iiot "--out=${csv}" --scale=0.05 --seed=3)
if(NOT EXISTS "${csv}")
  message(FATAL_ERROR "gen did not write ${csv}")
endif()

run_step(0 "${CND_BIN}" run "--data=${csv}" --experiences=4 --epochs=2)
expect_output("AVG=")

run_step(0 "${CND_BIN}" score "--train=${csv}" "--test=${csv}" --epochs=2)
expect_output("threshold=")

run_step(0 "${CND_BIN}" snapshot "--data=${csv}" "--out=${artifact}" --epochs=2)
if(NOT EXISTS "${artifact}")
  message(FATAL_ERROR "snapshot did not write ${artifact}")
endif()

run_step(0 "${CND_BIN}" restore "--artifact=${artifact}" "--test=${csv}" --explain)
expect_output("threshold=")
expect_output("top_latent_features")
expect_output("%)\"")  # an alarmed row carries its attribution

# A truncated artifact (its first four bytes: the magic number alone) is
# refused; test_serve sweeps deeper cuts.
file(READ "${artifact}" head LIMIT 4)
file(WRITE "${truncated}" "${head}")
run_step(1 "${CND_BIN}" restore "--artifact=${truncated}" "--test=${csv}")

# `apply` and its second artifact format are gone.
run_step(2 "${CND_BIN}" apply "--test=${csv}")

message(STATUS "cli smoke test passed")
