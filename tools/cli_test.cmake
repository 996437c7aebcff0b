# Copyright 2026 The QPGC Authors.
#
# Runs one command line for ctest and checks how it ends:
#
#   cmake "-DCMD=<exe>|<arg>|..." -DEXPECT_EXIT=<code> [-DEXPECT_OUT=<regex>]
#         -P cli_test.cmake
#
# CMD separates its words with '|' (a ';' would split the -D value). The
# exit code must equal EXPECT_EXIT exactly, so a crash (a signal, not an
# exit code) fails the test; a non-empty EXPECT_OUT must match stdout.

string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${rc}', want ${EXPECT_EXIT}\n${out}${err}")
endif()
if(NOT "${EXPECT_OUT}" STREQUAL "" AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_OUT}'\n${out}${err}")
endif()
