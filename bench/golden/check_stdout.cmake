# Golden-output check for one bench run: run the binary with its arguments
# in a fresh working directory, hash its stdout and any extra output files
# it leaves there with SHA-256, and compare each digest with its line in
# the committed digest file.
#
#   cmake -DBENCH=<binary> -DNAME=<case> -DDIGESTS=<stdout.sha256>
#         -DWORKDIR=<scratch dir> [-DARGS="<arg> ..."] [-DFILES="<file> ..."]
#         -P check_stdout.cmake
#
# The digest file holds `sha256sum` lines: "<hex>  <case>" for stdout and
# "<hex>  <case>/<file>" for each extra file. After a change that
# deliberately alters a case's output, re-capture its lines with
#   (cd "$(mktemp -d)" && /path/to/build/<dir>/<binary> <args> | sha256sum
#    && sha256sum <files>)
# and give the reason in CHANGES.md.

foreach(var BENCH NAME DIGESTS WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(files UNIX_COMMAND "${FILES}")

file(STRINGS "${DIGESTS}" lines)
function(golden_digest key out)
  set(found "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^([0-9a-f]+)  (.+)$" AND CMAKE_MATCH_2 STREQUAL key)
      set(found "${CMAKE_MATCH_1}")
    endif()
  endforeach()
  if(found STREQUAL "")
    message(FATAL_ERROR "no digest for ${key} in ${DIGESTS}")
  endif()
  set(${out} "${found}" PARENT_SCOPE)
endfunction()

# Benches merge a host-cost row into BENCH_sim.json in their working
# directory, so each run gets an empty one of its own.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()

set(mismatches "")
golden_digest("${NAME}" expected)
string(SHA256 actual "${out}")
if(NOT actual STREQUAL expected)
  file(WRITE "${WORKDIR}/stdout.txt" "${out}")
  list(APPEND mismatches "stdout digest ${actual} != golden ${expected}")
endif()
foreach(f IN LISTS files)
  golden_digest("${NAME}/${f}" expected)
  if(NOT EXISTS "${WORKDIR}/${f}")
    list(APPEND mismatches "${f} was not written")
    continue()
  endif()
  file(SHA256 "${WORKDIR}/${f}" actual)
  if(NOT actual STREQUAL expected)
    list(APPEND mismatches "${f} digest ${actual} != golden ${expected}")
  endif()
endforeach()
if(mismatches)
  list(JOIN mismatches "; " why)
  message(FATAL_ERROR "${NAME}: ${why}; the output is in ${WORKDIR}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
