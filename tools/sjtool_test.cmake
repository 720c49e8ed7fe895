# End-to-end pipeline test of the sjtool CLI:
# generate -> info -> join (csv out) -> dbscan.
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

run(${SJTOOL} generate --dataset Expo2D2M --n 3000 --out ds.bin)
run(${SJTOOL} info --input ds.bin)
run(${SJTOOL} join --input ds.bin --epsilon 0.02 --variant combined --pairs-out pairs.csv)
run(${SJTOOL} join --input ds.bin --epsilon 0.02 --variant superego)
run(${SJTOOL} dbscan --input ds.bin --epsilon 0.05 --minpts 4)

if(NOT EXISTS ${WORKDIR}/pairs.csv)
  message(FATAL_ERROR "pairs.csv not written")
endif()

# Malformed numbers must fail with exit 1 and a message naming the flag
# (or request key) and the value — never run on a truncated prefix.
function(run_fails needle)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${needle}': ${ARGN}\n${err}")
  endif()
endfunction()

run_fails("--device-sms: expected an integer, got '56x'"
          ${SJTOOL} join --input ds.bin --epsilon 0.02 --variant combined
          --devices 2 --device-sms 56x,28)
run_fails("--device-clock: expected a number, got '1.3GHz'"
          ${SJTOOL} join --input ds.bin --epsilon 0.02 --variant combined
          --devices 2 --device-clock 1.3GHz,1.0)
# Integer flags are range-checked while they are parsed, before any
# thread starts: -1 workers once became SIZE_MAX, and 2^32 + 1 host
# threads silently ran with one.
run_fails("--workers: expected an integer in [1, 1024], got '-1'"
          ${SJTOOL} serve --input ds.bin --stress 2 --workers -1)
run_fails("--host-threads: expected an integer in [0, 1024], got '4294967297'"
          ${SJTOOL} join --input ds.bin --epsilon 0.02 --variant combined
          --host-threads 4294967297)
# Flags are checked before any dataset work: with --input naming a
# missing file, the flag error is still the one reported.
run_fails("--workers: expected an integer in [1, 1024], got '-1'"
          ${SJTOOL} serve --input missing.bin --stress 2 --workers -1)
run_fails("unknown flag(s): --varient"
          ${SJTOOL} join --input missing.bin --epsilon 0.02 --varient unicomp)
# A misspelled flag fails the subcommand before it runs, naming the flag.
run_fails("unknown flag(s): --varient"
          ${SJTOOL} join --input ds.bin --epsilon 0.02 --varient unicomp)
run_fails("unknown flag(s): --worker"
          ${SJTOOL} serve --input ds.bin --stress 2 --worker 2)
file(WRITE ${WORKDIR}/bad_requests.txt "epsilon=0.02x variant=combined\n")
run_fails("request key 'epsilon': expected a number, got '0.02x'"
          ${SJTOOL} serve --input ds.bin --requests bad_requests.txt)

# Churn serve with --verify: the pairs advanced by every epoch's delta
# must equal that epoch's cold re-join, and the report must say so.
run(${SJTOOL} serve --input ds.bin --stress 6 --workers 2 --seed 3
    --churn-rate 0.02 --churn-epochs 4 --verify --out churn.json)
file(READ ${WORKDIR}/churn.json churn_json)
string(REGEX MATCH "\"delta_checks\": ([0-9]+)" _ "${churn_json}")
if(NOT CMAKE_MATCH_1 GREATER 0)
  message(FATAL_ERROR "churn serve ran no delta checks:\n${churn_json}")
endif()
string(REGEX MATCH "\"delta_mismatches\": ([0-9]+)" _ "${churn_json}")
if(NOT CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "churn serve delta mismatches:\n${churn_json}")
endif()
