# Golden-output check for one bench: run it with no arguments in a fresh
# working directory, hash its stdout with SHA-256 and compare the digest
# with the bench's line in the committed digest file.
#
#   cmake -DBENCH=<binary> -DNAME=<bench> -DDIGESTS=<stdout.sha256>
#         -DWORKDIR=<scratch dir> -P check_stdout.cmake
#
# The digest file holds `sha256sum` lines ("<hex>  <bench>"). After a change
# that deliberately alters a bench's output, re-capture its line with
#   (cd "$(mktemp -d)" && /path/to/build/bench/<bench> | sha256sum)
# and give the reason in CHANGES.md.

foreach(var BENCH NAME DIGESTS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

set(expected "")
file(STRINGS "${DIGESTS}" lines)
foreach(line IN LISTS lines)
  if(line MATCHES "^([0-9a-f]+)  ${NAME}$")
    set(expected "${CMAKE_MATCH_1}")
  endif()
endforeach()
if(expected STREQUAL "")
  message(FATAL_ERROR "no digest for ${NAME} in ${DIGESTS}")
endif()

# Benches merge a host-cost row into BENCH_sim.json in their working
# directory, so each run gets an empty one of its own.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()

string(SHA256 actual "${out}")
if(NOT actual STREQUAL expected)
  file(WRITE "${WORKDIR}/stdout.txt" "${out}")
  message(FATAL_ERROR "${NAME} stdout digest ${actual} != golden ${expected}"
                      "; the output is in ${WORKDIR}/stdout.txt")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
