# Runs `ftb_analyze campaign --kernel KERNEL --preset default --seed 1
# --batch 5000 --resume J --save B` from a fresh journal and checks the
# SHA-256 of the finished journal J and of the filtered boundary B.
#
#   cmake -DANALYZE=<ftb_analyze> -DKERNEL=cg -DWORK=<dir>
#         -DJOURNAL_SHA256=<hex> -DBOUNDARY_SHA256=<hex> -P pinned_bytes.cmake
file(MAKE_DIRECTORY "${WORK}")
set(journal "${WORK}/${KERNEL}.clog")
set(boundary "${WORK}/${KERNEL}.boundary")
file(REMOVE "${journal}" "${boundary}")

execute_process(
  COMMAND "${ANALYZE}" campaign --kernel ${KERNEL} --preset default --seed 1
          --batch 5000 --resume "${journal}" --save "${boundary}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ftb_analyze exited with ${status}:\n${output}")
endif()

file(SHA256 "${journal}" journal_actual)
file(SHA256 "${boundary}" boundary_actual)
set(failed FALSE)
if(NOT journal_actual STREQUAL JOURNAL_SHA256)
  message(SEND_ERROR "${KERNEL} journal: sha256 ${journal_actual}, "
                     "pinned ${JOURNAL_SHA256}")
  set(failed TRUE)
endif()
if(NOT boundary_actual STREQUAL BOUNDARY_SHA256)
  message(SEND_ERROR "${KERNEL} boundary: sha256 ${boundary_actual}, "
                     "pinned ${BOUNDARY_SHA256}")
  set(failed TRUE)
endif()
if(failed)
  message(FATAL_ERROR "${KERNEL}: campaign bytes differ from the pinned ones")
endif()
message(STATUS "${KERNEL}: journal and boundary match the pinned bytes")
