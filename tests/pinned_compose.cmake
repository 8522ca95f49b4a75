# Runs `ftb_analyze compose --kernel KERNEL --preset default --store-dir D
# --artifact A --save B` from an empty store and checks the SHA-256 of the
# composed artifact A and of the composed boundary B.
#
#   cmake -DANALYZE=<ftb_analyze> -DKERNEL=fft -DWORK=<dir>
#         -DARTIFACT_SHA256=<hex> -DBOUNDARY_SHA256=<hex>
#         -P pinned_compose.cmake
set(store "${WORK}/${KERNEL}-store")
set(artifact "${WORK}/${KERNEL}.compose")
set(boundary "${WORK}/${KERNEL}.boundary")
file(REMOVE_RECURSE "${store}")
file(REMOVE "${artifact}" "${boundary}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(
  COMMAND "${ANALYZE}" compose --kernel ${KERNEL} --preset default
          --store-dir "${store}" --artifact "${artifact}" --save "${boundary}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ftb_analyze exited with ${status}:\n${output}")
endif()

file(SHA256 "${artifact}" artifact_actual)
file(SHA256 "${boundary}" boundary_actual)
set(failed FALSE)
if(NOT artifact_actual STREQUAL ARTIFACT_SHA256)
  message(SEND_ERROR "${KERNEL} composed artifact: sha256 "
                     "${artifact_actual}, pinned ${ARTIFACT_SHA256}")
  set(failed TRUE)
endif()
if(NOT boundary_actual STREQUAL BOUNDARY_SHA256)
  message(SEND_ERROR "${KERNEL} composed boundary: sha256 ${boundary_actual}, "
                     "pinned ${BOUNDARY_SHA256}")
  set(failed TRUE)
endif()
if(failed)
  message(FATAL_ERROR "${KERNEL}: compose bytes differ from the pinned ones")
endif()
message(STATUS
        "${KERNEL}: composed artifact and boundary match the pinned bytes")
