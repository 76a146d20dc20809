# ctest script: `crusade <VERB> --help` must print the usage on stdout and
# exit 0 without contacting the daemon.  SOCKET names a path no daemon
# listens on, so a verb that tried to connect would fail.
execute_process(
  COMMAND ${CLI} ${VERB} --help --socket ${SOCKET}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crusade ${VERB} --help exited ${rc}: ${err}")
endif()
if(NOT out MATCHES "usage:")
  message(FATAL_ERROR "crusade ${VERB} --help printed no usage: ${out}")
endif()
